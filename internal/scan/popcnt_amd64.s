#include "textflag.h"

// MASKGROUPS starts a mask kernel's AVX-512 walk over its n = CX > 0 blocks
// in groups of eight, from the last group down: it leaves that group's byte
// offset in BX and its lanes, 1 to 8, in K2. It uses CX and R10.
#define MASKGROUPS \
	LEAQ -1(CX), BX \
	ANDQ $-8, BX \
	SHLQ $3, BX \
	NEGL CX \
	ANDL $7, CX \
	MOVL $0xff, R10 \
	SHRL CX, R10 \
	KMOVW R10, K2

// MASKNEXT ends one group of eight blocks: its keep bits in K1 go below the
// mask in AX, shifted up by eight, and the walk goes on to the group before
// (every one of them whole) while one is left. It uses R10.
#define MASKNEXT \
	KMOVW K1, R10 \
	SHLQ $8, AX \
	ORQ R10, AX \
	KXNORW K2, K2, K2 \
	SUBQ $64, BX \
	JGE maskvec \
	VZEROUPPER

// func occMaskPOPCNT(hi, lo []uint64, sq uint64, slack int) uint64
//
// The blocks are walked from the last down, and the mask is shifted up by
// one bit per block, so block j ends at bit j. Each bit is keep's: the sign
// bits of slack minus each side's popcount, ORed, say whether either is past
// slack.
//
// With vpopcntKernels the AVX-512 body takes every block instead, eight a
// step (MASKGROUPS): eight ORs and eight ANDs loaded, the last group under
// its lane mask, both sides' popcounts, and their larger one compared
// (signed, as keep compares) with slack into eight bits of K1.
TEXT ·occMaskPOPCNT(SB), NOSPLIT, $0-72
	MOVQ hi_base+0(FP), SI
	MOVQ hi_len+8(FP), CX
	MOVQ lo_base+24(FP), DI
	MOVQ sq+48(FP), DX
	MOVQ slack+56(FP), R8
	XORL AX, AX             // the mask
	TESTQ CX, CX
	JZ    maskdone
	CMPB  ·vpopcntKernels(SB), $0
	JNE   maskavx
	MOVQ DX, R9
	NOTQ R9                 // ^sq
	PCALIGN $64

maskloop:
	MOVQ -8(SI)(CX*8), R10
	NOTQ R10
	ANDQ DX, R10
	POPCNTQ R10, R10        // bits of sq the block's OR lacks
	MOVQ -8(DI)(CX*8), R11
	ANDQ R9, R11
	POPCNTQ R11, R11        // bits of the block's AND that sq lacks
	MOVQ R8, R12
	SUBQ R10, R12
	MOVQ R8, R13
	SUBQ R11, R13
	ORQ  R13, R12           // negative when either side is past slack
	NOTQ R12
	SHRQ $63, R12           // keep
	LEAQ (R12)(AX*2), AX
	DECQ CX
	JNZ  maskloop
	JMP  maskdone

maskavx:
	VPBROADCASTQ DX, Z0     // sq
	VPBROADCASTQ R8, Z1     // slack
	MASKGROUPS
	PCALIGN $64

maskvec:
	VMOVDQU64.Z (SI)(BX*1), K2, Z4 // the eight ORs
	VMOVDQU64.Z (DI)(BX*1), K2, Z6 // the eight ANDs
	VPANDNQ   Z0, Z4, Z4    // sq &^ OR
	VPANDNQ   Z6, Z0, Z6    // AND &^ sq
	VPOPCNTQ  Z4, Z4
	VPOPCNTQ  Z6, Z6
	VPMAXUQ   Z4, Z6, Z4
	VPCMPQ    $2, Z1, Z4, K2, K1 // keep: a lane of the group, the larger side <= slack
	MASKNEXT

maskdone:
	MOVQ AX, ret+64(FP)
	RET

// The two group kernels walk the set bits of the block mask in BX from the
// lowest up, one block of sixteen words a step, with the same three pieces:
// GROUPCLAMP before the walk, GROUPBLOCK at the head of each step and
// GROUPNEXT after it. Only the test between differs, which leaves in R10 the
// block's survivors, one bit a lane, and goes to blocklanes when there are
// any, to blocknext (the next line) when not. words are at SI, len(words) in
// R13, from in CX and surv at DI.

// GROUPCLAMP computes the edge blocks' lanes — the first block's, lane from
// and up, in R9; the last block's, below len(words), in DX; both clamps in
// both where the group is one block — and the last block's number in R8,
// then jumps to the walk. It uses CX.
#define GROUPCLAMP \
	MOVL $0xffff, R9 \
	SHLL CX, R9 \
	LEAQ -1(R13), R8 \
	SHRQ $4, R8 \
	MOVL R13, CX \
	NEGL CX \
	ANDL $15, CX \
	MOVL $0xffff, DX \
	SHRL CX, DX \
	TESTQ R8, R8 \
	JNZ   blockvec \
	ANDL  R9, DX \
	MOVL  DX, R9 \
	JMP   blockvec

// GROUPBLOCK takes block j, the lowest left in BX, out of it: j in AX, its
// lanes in K2 (0-7) and K3 (8-15) — all sixteen, or an edge block's clamp,
// picked by CMOV — and its first word's byte offset in R11. It uses R10.
#define GROUPBLOCK \
	BSFQ BX, AX \
	LEAQ -1(BX), R10 \
	ANDQ R10, BX \
	MOVL $0xffff, R10 \
	TESTQ AX, AX \
	CMOVQEQ R9, R10 \
	CMPQ AX, R8 \
	CMOVQEQ DX, R10 \
	KMOVW R10, K2 \
	KSHIFTRW $8, K2, K3 \
	MOVQ AX, R11 \
	SHLQ $7, R11

// GROUPNEXT goes on to the next block while one is left in BX, and holds
// out of line the store of a block's survivors, the lanes set in R10, as
// indexes in order: a BSF walk. It uses R11.
#define GROUPNEXT \
blocknext: \
	TESTQ BX, BX \
	JNZ   blockvec \
	VZEROUPPER \
	JMP   groupdone \
blocklanes: \
	SHLL $4, AX \
blocklane: \
	BSFL R10, R11 \
	ADDL AX, R11 \
	MOVL R11, 0(DI) \
	ADDQ $4, DI \
	LEAL -1(R10), R11 \
	ANDL R11, R10 \
	JNZ  blocklane \
	JMP  blocknext

// func occGroupPOPCNT(words []uint64, mask uint64, from int, surv []int32, sq uint64, slack int) int
//
// Walks the set bits of mask from the lowest up — block j is words[16j:16j+16],
// clamped to [from, len(words)) — stores the index of every word within slack
// of sq on both sides and returns how many it stored. The first block's
// clamp is from, the last one's len(words); no word outside them is read.
//
// With vpopcntKernels a block is one step of the AVX-512 walk: two
// zero-masking loads of eight words each under the block's lanes, both
// one-sided differences, their popcounts, the larger one compared (signed,
// as sigReject compares) with slack under the lanes, and one branch on the
// sixteen bits, taken only for a block with a survivor. Otherwise the scalar
// body tests the block's words one by one, with occGroup's branches: on
// occurrence words few slots pass, and the predictor learns it.
TEXT ·occGroupPOPCNT(SB), NOSPLIT, $0-88
	MOVQ words_base+0(FP), SI
	MOVQ words_len+8(FP), R13
	MOVQ mask+24(FP), BX
	MOVQ from+32(FP), CX
	MOVQ surv_base+40(FP), DI
	MOVQ sq+64(FP), DX
	MOVQ slack+72(FP), R8
	TESTQ BX, BX
	JZ    groupdone
	CMPB  ·vpopcntKernels(SB), $0
	JEQ   groupscalar
	VPBROADCASTQ DX, Z0     // sq
	VPBROADCASTQ R8, Z1     // slack
	GROUPCLAMP
	PCALIGN $64

blockvec:
	GROUPBLOCK
	VMOVDQU64.Z 0(SI)(R11*1), K2, Z2  // lanes 0-7
	VMOVDQU64.Z 64(SI)(R11*1), K3, Z3 // lanes 8-15
	VPANDNQ   Z0, Z2, Z4    // sq &^ x
	VPANDNQ   Z2, Z0, Z2    // x &^ sq
	VPANDNQ   Z0, Z3, Z5
	VPANDNQ   Z3, Z0, Z3
	VPOPCNTQ  Z4, Z4
	VPOPCNTQ  Z2, Z2
	VPOPCNTQ  Z5, Z5
	VPOPCNTQ  Z3, Z3
	VPMAXUQ   Z2, Z4, Z2
	VPMAXUQ   Z3, Z5, Z3
	VPCMPQ    $2, Z1, Z2, K2, K4 // kept: a lane of the block, the larger side <= slack
	VPCMPQ    $2, Z1, Z3, K3, K5
	KMOVW     K4, R10
	KMOVW     K5, R11
	SHLL      $8, R11
	ORL       R11, R10
	JNZ       blocklanes
	GROUPNEXT

groupscalar:
	MOVQ DX, R9
	NOTQ R9                 // ^sq
	JMP  groupblock
	PCALIGN $64

groupblock:
	BSFQ BX, AX
	LEAQ -1(BX), R10
	ANDQ R10, BX            // block j done
	SHLQ $4, AX             // its first index
	LEAQ 16(AX), R10
	CMPQ R10, R13
	CMOVQGT R13, R10        // its end, clamped to len(words)
	CMPQ AX, CX
	CMOVQLT CX, AX          // and its start to from
	JMP  groupword
	PCALIGN $64

groupword:
	MOVQ 0(SI)(AX*8), R11
	MOVQ R11, R12
	NOTQ R11
	ANDQ DX, R11
	POPCNTQ R11, R11        // bits of sq the word lacks
	ANDQ R9, R12
	POPCNTQ R12, R12        // bits of the word that sq lacks
	CMPQ R11, R8
	JGT  groupnext
	CMPQ R12, R8
	JGT  groupnext
	MOVL AX, 0(DI)
	ADDQ $4, DI

groupnext:
	INCQ AX
	CMPQ AX, R10
	JLT  groupword
	TESTQ BX, BX
	JNZ  groupblock

groupdone:
	SUBQ surv_base+40(FP), DI
	SHRQ $2, DI
	MOVQ DI, ret+80(FP)
	RET

// COUNTCONSTS broadcasts sq (from DX) into Z0 and zeroes Z2, what both
// count-word kernels hold a word against: a count word is five bytes, so a
// surplus is one VPSUBUSB (each field's max(a - b, 0)) and one VPSADBW
// against Z2 (the eight bytes of each qword summed into it).
#define COUNTCONSTS \
	VPBROADCASTQ DX, Z0 \
	VPXORQ Z2, Z2, Z2

// func cntMaskAVX512(hi, lo []uint64, sq uint64, slack int) uint64
//
// occMaskPOPCNT's AVX-512 body on count words: per group of eight blocks,
// eight maxima and eight minima loaded, the surplus of sq over each maximum
// and of each minimum over sq, and their larger one compared (signed, as
// keep compares) with slack under the group's lanes into eight bits of K1.
TEXT ·cntMaskAVX512(SB), NOSPLIT, $0-72
	MOVQ hi_base+0(FP), SI
	MOVQ hi_len+8(FP), CX
	MOVQ lo_base+24(FP), DI
	MOVQ sq+48(FP), DX
	XORL AX, AX             // the mask
	TESTQ CX, CX
	JZ    maskdone
	COUNTCONSTS
	VPBROADCASTQ slack+56(FP), Z1
	MASKGROUPS
	PCALIGN $64

maskvec:
	VMOVDQU64.Z (SI)(BX*1), K2, Z10 // the eight maxima
	VMOVDQU64.Z (DI)(BX*1), K2, Z12 // the eight minima
	VPSUBUSB  Z10, Z0, Z10  // sq over the maximum
	VPSUBUSB  Z0, Z12, Z12  // the minimum over sq
	VPSADBW   Z2, Z10, Z10
	VPSADBW   Z2, Z12, Z12
	VPMAXUQ   Z12, Z10, Z10
	VPCMPQ    $2, Z1, Z10, K2, K1 // keep: a lane of the group, the larger surplus <= slack
	MASKNEXT

maskdone:
	MOVQ AX, ret+64(FP)
	RET

// GRAMS(off, off8, gq) adds, for the sixteen lanes of a block, the grams of
// gq (one word of the query's set, broadcast) that the slot's word at byte
// off of the block lacks, and the grams the slot's word has that gq lacks:
// to Z22 and Z23 for lanes 0-7 (off), to Z24 and Z25 for lanes 8-15 (off8 =
// off + 64). The block's 4-gram words start at R12 + R11.
#define GRAMS(off, off8, gq) \
	VMOVDQU64 off(R12)(R11*1), Z10 \
	VMOVDQU64 off8(R12)(R11*1), Z11 \
	VPANDNQ gq, Z10, Z12 \
	VPANDNQ Z10, gq, Z10 \
	VPANDNQ gq, Z11, Z13 \
	VPANDNQ Z11, gq, Z11 \
	VPOPCNTQ Z12, Z12 \
	VPOPCNTQ Z10, Z10 \
	VPOPCNTQ Z13, Z13 \
	VPOPCNTQ Z11, Z11 \
	VPADDQ Z12, Z22, Z22 \
	VPADDQ Z10, Z23, Z23 \
	VPADDQ Z13, Z24, Z24 \
	VPADDQ Z11, Z25, Z25

// func cntGroupAVX512(words, grams []uint64, mask uint64, from int, surv []int32, sq uint64, gq *gramSet, slack, bound int) (n, passed int)
//
// Walks the set bits of mask as occGroupPOPCNT's AVX-512 body does — block j
// is words[16j:16j+16], clamped to [from, len(words)), and its 4-gram sets
// are grams[64j:64j+64], word i of lane l at 16i+l — and per block: two
// zero-masking loads of eight count words each under the block's lanes,
// both surpluses, their larger one compared (signed) with slack under the
// lanes into K4 and K5, and the popcount of those sixteen bits added to
// passed. A block with a lane left tests all sixteen sets: per word of the
// four, two loads, both one-sided differences against gq's word and their
// popcounts, summed per side; the larger side is compared with bound under
// K4 and K5. Nothing outside the clamps of words is read; every block's four
// runs of grams are.
TEXT ·cntGroupAVX512(SB), NOSPLIT, $0-136
	MOVQ words_base+0(FP), SI
	MOVQ words_len+8(FP), R13
	MOVQ grams_base+24(FP), R12
	MOVQ mask+48(FP), BX
	MOVQ from+56(FP), CX
	MOVQ surv_base+64(FP), DI
	XORL R14, R14           // passed
	TESTQ BX, BX
	JZ    groupdone
	MOVQ sq+88(FP), DX
	COUNTCONSTS
	VPBROADCASTQ slack+104(FP), Z1
	VPBROADCASTQ bound+112(FP), Z5
	MOVQ gq+96(FP), R8
	VPBROADCASTQ 0(R8), Z6  // the query's four 4-gram words
	VPBROADCASTQ 8(R8), Z7
	VPBROADCASTQ 16(R8), Z8
	VPBROADCASTQ 24(R8), Z9
	GROUPCLAMP
	PCALIGN $64

blockvec:
	GROUPBLOCK
	VMOVDQU64.Z 0(SI)(R11*1), K2, Z10  // x, lanes 0-7
	VMOVDQU64.Z 64(SI)(R11*1), K3, Z11 // lanes 8-15
	VPSUBUSB Z10, Z0, Z12   // sq over x
	VPSUBUSB Z11, Z0, Z13
	VPSUBUSB Z0, Z10, Z10   // x over sq
	VPSUBUSB Z0, Z11, Z11
	VPSADBW Z2, Z12, Z12
	VPSADBW Z2, Z13, Z13
	VPSADBW Z2, Z10, Z10
	VPSADBW Z2, Z11, Z11
	VPMAXUQ Z10, Z12, Z12
	VPMAXUQ Z11, Z13, Z13
	VPCMPQ  $2, Z1, Z12, K2, K4 // passed: a lane of the block, the larger surplus <= slack
	VPCMPQ  $2, Z1, Z13, K3, K5
	KMOVW   K4, R10
	KMOVW   K5, R11
	SHLL    $8, R11
	ORL     R11, R10
	JZ      blocknext
	POPCNTL R10, R11
	ADDQ    R11, R14
	MOVQ    AX, R11
	SHLQ    $9, R11         // the block's 4-gram words, in bytes
	VPXORQ  Z22, Z22, Z22
	VPXORQ  Z23, Z23, Z23
	VPXORQ  Z24, Z24, Z24
	VPXORQ  Z25, Z25, Z25
	GRAMS(0, 64, Z6)
	GRAMS(128, 192, Z7)
	GRAMS(256, 320, Z8)
	GRAMS(384, 448, Z9)
	VPMAXUQ Z23, Z22, Z22
	VPMAXUQ Z25, Z24, Z24
	VPCMPQ  $2, Z5, Z22, K4, K6 // kept: passed, the larger side <= bound
	VPCMPQ  $2, Z5, Z24, K5, K7
	KMOVW   K6, R10
	KMOVW   K7, R11
	SHLL    $8, R11
	ORL     R11, R10
	JNZ     blocklanes
	GROUPNEXT

groupdone:
	SUBQ surv_base+64(FP), DI
	SHRQ $2, DI
	MOVQ DI, n+120(FP)
	MOVQ R14, passed+128(FP)
	RET
