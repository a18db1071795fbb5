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

// func occSurvivorsPOPCNT(run []uint64, surv []int32, off int32, sq uint64, slack int) int
//
// Stores off+i for every word run[i] within slack of sq on both sides and
// returns how many it stored. The branches are firstWord's: on occurrence
// words few slots pass, and the predictor learns it.
//
// With vpopcntKernels the AVX-512 head first tests the whole groups of eight
// words: one load, both one-sided differences, their popcounts, the larger
// one compared (signed, as sigReject compares) with slack into K1, and one
// branch on the eight bits, taken only for a group with a survivor; its
// survivors are stored in order by a BSF walk. The scalar loop takes the
// words past the last whole group.
TEXT ·occSurvivorsPOPCNT(SB), NOSPLIT, $0-80
	MOVQ run_base+0(FP), SI
	MOVQ run_len+8(FP), CX
	MOVQ surv_base+24(FP), DI
	MOVL off+48(FP), BX
	MOVQ sq+56(FP), DX
	MOVQ slack+64(FP), R8
	MOVQ DX, R9
	NOTQ R9                 // ^sq
	MOVQ DI, R12            // surv[0], to count the stores by
	CMPB ·vpopcntKernels(SB), $0
	JEQ  survtail
	MOVQ CX, R13
	SHRQ $3, R13            // the groups of eight
	JZ   survtail
	ANDQ $7, CX
	VPBROADCASTQ DX, Z0     // sq
	VPBROADCASTQ R8, Z1     // slack
	PCALIGN $64

survvec:
	VMOVDQU64 0(SI), Z2
	VPANDNQ   Z0, Z2, Z3    // sq &^ x
	VPANDNQ   Z2, Z0, Z2    // x &^ sq
	VPOPCNTQ  Z3, Z3
	VPOPCNTQ  Z2, Z2
	VPMAXUQ   Z2, Z3, Z2
	VPCMPQ    $2, Z1, Z2, K1 // kept: the larger side <= slack
	KMOVW     K1, R10
	TESTL     R10, R10
	JNZ       survlanes

survvecnext:
	ADDL $8, BX
	ADDQ $64, SI
	DECQ R13
	JNZ  survvec
	VZEROUPPER
	JMP  survtail

survlanes:
	BSFL R10, R11
	ADDL BX, R11
	MOVL R11, 0(DI)
	ADDQ $4, DI
	LEAL -1(R10), R11
	ANDL R11, R10           // the lowest lane done
	JNZ  survlanes
	JMP  survvecnext

survtail:
	TESTQ CX, CX
	JZ    survdone
	PCALIGN $64

survloop:
	MOVQ 0(SI), R10
	MOVQ R10, R11
	NOTQ R10
	ANDQ DX, R10
	POPCNTQ R10, R10        // bits of sq the word lacks
	ANDQ R9, R11
	POPCNTQ R11, R11        // bits of the word that sq lacks
	CMPQ R10, R8
	JGT  survnext
	CMPQ R11, R8
	JGT  survnext
	MOVL BX, 0(DI)
	ADDQ $4, DI

survnext:
	INCL BX
	ADDQ $8, SI
	DECQ CX
	JNZ  survloop

survdone:
	SUBQ R12, DI
	SHRQ $2, DI
	MOVQ DI, ret+72(FP)
	RET
