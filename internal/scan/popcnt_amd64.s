#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// The qword indexes VPERMT2Q takes to pull the ORs (even) and the ANDs (odd)
// out of eight interleaved pairs held in two registers.
DATA pairsEven<>+0(SB)/8, $0
DATA pairsEven<>+8(SB)/8, $2
DATA pairsEven<>+16(SB)/8, $4
DATA pairsEven<>+24(SB)/8, $6
DATA pairsEven<>+32(SB)/8, $8
DATA pairsEven<>+40(SB)/8, $10
DATA pairsEven<>+48(SB)/8, $12
DATA pairsEven<>+56(SB)/8, $14
GLOBL pairsEven<>(SB), RODATA|NOPTR, $64

DATA pairsOdd<>+0(SB)/8, $1
DATA pairsOdd<>+8(SB)/8, $3
DATA pairsOdd<>+16(SB)/8, $5
DATA pairsOdd<>+24(SB)/8, $7
DATA pairsOdd<>+32(SB)/8, $9
DATA pairsOdd<>+40(SB)/8, $11
DATA pairsOdd<>+48(SB)/8, $13
DATA pairsOdd<>+56(SB)/8, $15
GLOBL pairsOdd<>(SB), RODATA|NOPTR, $64

// func occMaskPOPCNT(sums []uint64, sq uint64, slack int) uint64
//
// The pairs are walked from the last down, and the mask is shifted up by one
// bit per pair, so pair j ends at bit j. Each bit is keep's: the sign bits of
// slack minus each side's popcount, ORed, say whether either is past slack.
//
// With vpopcntKernels the scalar loop takes only the pairs past the last
// whole group of eight, and the AVX-512 head then walks the groups from the
// last down, shifting the mask up by eight per group. A group is sixteen
// words: two loads, two VPERMT2Q to split them into eight ORs and eight
// ANDs, and both sides' popcounts, their larger one compared (signed, as
// keep compares) with slack into eight bits of K1.
TEXT ·occMaskPOPCNT(SB), NOSPLIT, $0-48
	MOVQ sums_base+0(FP), SI
	MOVQ sums_len+8(FP), CX
	MOVQ sq+24(FP), DX
	MOVQ slack+32(FP), R8
	MOVQ DX, R9
	NOTQ R9                 // ^sq
	XORL AX, AX             // the mask
	SHRQ $1, CX             // the pairs
	MOVQ CX, R10
	SHLQ $4, R10
	LEAQ -16(SI)(R10*1), SI // the last pair
	XORL BX, BX             // the groups of eight the head takes
	CMPB ·vpopcntKernels(SB), $0
	JEQ  masktail
	MOVQ CX, BX
	SHRQ $3, BX
	ANDQ $7, CX

masktail:
	TESTQ CX, CX
	JZ    maskhead
	PCALIGN $64

maskloop:
	MOVQ 0(SI), R10
	NOTQ R10
	ANDQ DX, R10
	POPCNTQ R10, R10        // bits of sq the block's OR lacks
	MOVQ 8(SI), R11
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
	SUBQ $16, SI
	DECQ CX
	JNZ  maskloop

maskhead:
	TESTQ BX, BX
	JZ    maskdone
	SUBQ  $112, SI          // the last group's first pair
	VPBROADCASTQ DX, Z0     // sq
	VPBROADCASTQ R8, Z1     // slack
	VMOVDQU64 pairsEven<>(SB), Z2
	VMOVDQU64 pairsOdd<>(SB), Z3
	PCALIGN $64

maskvec:
	VMOVDQU64 0(SI), Z4     // pairs 0-3 of the group
	VMOVDQU64 64(SI), Z5    // pairs 4-7
	VMOVDQA64 Z4, Z6
	VPERMT2Q  Z5, Z2, Z4    // the eight ORs
	VPERMT2Q  Z5, Z3, Z6    // the eight ANDs
	VPANDNQ   Z0, Z4, Z4    // sq &^ OR
	VPANDNQ   Z6, Z0, Z6    // AND &^ sq
	VPOPCNTQ  Z4, Z4
	VPOPCNTQ  Z6, Z6
	VPMAXUQ   Z4, Z6, Z4
	VPCMPQ    $2, Z1, Z4, K1 // keep: the larger side <= slack
	KMOVW     K1, R10
	SHLQ      $8, AX
	ORQ       R10, AX
	SUBQ      $128, SI
	DECQ      BX
	JNZ       maskvec
	VZEROUPPER

maskdone:
	MOVQ AX, ret+40(FP)
	RET

// func occGroupPOPCNT(words []uint64, mask uint64, from int, surv []int32, sq uint64, slack int) int
//
// Walks the set bits of mask from the lowest up — block j is words[16j:16j+16],
// clamped to [from, len(words)) — stores the index of every word within slack
// of sq on both sides and returns how many it stored. The first block's
// clamp is from, the last one's len(words); no word outside them is read.
//
// With vpopcntKernels a block is one step of the AVX-512 body: its lane mask
// (all sixteen, or an edge block's clamp, picked by CMOV) in K2 and K3, two
// zero-masking loads of eight words each, both one-sided differences, their
// popcounts, the larger one compared (signed, as sigReject compares) with
// slack under the lane mask, and one branch on the sixteen bits, taken only
// for a block with a survivor; its survivors are stored in order by a BSF
// walk. Otherwise the scalar body tests the block's words one by one, with
// occGroup's branches: on occurrence words few slots pass, and the predictor
// learns it.
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
	MOVL $0xffff, R9
	SHLL CX, R9             // the first block's lanes: from from on
	LEAQ -1(R13), R8
	SHRQ $4, R8             // the last block
	MOVQ R8, CX
	SHLQ $4, CX
	NEGQ CX
	ADDQ R13, CX            // its lanes, 1 to 16
	MOVL $1, DX
	SHLL CX, DX
	DECL DX                 // the last block's lanes: below that
	TESTQ R8, R8
	JNZ   groupvec
	ANDL  R9, DX            // one block: both clamps on it
	MOVL  DX, R9
	JMP   groupvec
	PCALIGN $64

groupvec:
	BSFQ BX, AX             // block j
	LEAQ -1(BX), R10
	ANDQ R10, BX            // block j done
	MOVL $0xffff, R10
	TESTQ AX, AX
	CMOVQEQ R9, R10
	CMPQ AX, R8
	CMOVQEQ DX, R10         // the block's lanes
	KMOVW R10, K2
	KSHIFTRW $8, K2, K3
	MOVQ AX, R11
	SHLQ $7, R11            // the block's first word, in bytes
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
	JNZ       grouplanes

groupvecnext:
	TESTQ BX, BX
	JNZ   groupvec
	VZEROUPPER
	JMP   groupdone

grouplanes:
	SHLL $4, AX             // the block's first index

grouplane:
	BSFL R10, R11
	ADDL AX, R11
	MOVL R11, 0(DI)
	ADDQ $4, DI
	LEAL -1(R10), R11
	ANDL R11, R10           // the lowest lane done
	JNZ  grouplane
	JMP  groupvecnext

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
