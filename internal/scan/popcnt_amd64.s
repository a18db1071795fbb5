#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func occMaskPOPCNT(sums []uint64, sq uint64, slack int) uint64
//
// The pairs are walked from the last down, and the mask is shifted up by one
// bit per pair, so pair j ends at bit j. Each bit is keep's: the sign bits of
// slack minus each side's popcount, ORed, say whether either is past slack.
TEXT ·occMaskPOPCNT(SB), NOSPLIT, $0-48
	MOVQ sums_base+0(FP), SI
	MOVQ sums_len+8(FP), CX
	MOVQ sq+24(FP), DX
	MOVQ slack+32(FP), R8
	MOVQ DX, R9
	NOTQ R9                 // ^sq
	XORL AX, AX             // the mask
	SHRQ $1, CX             // the pairs
	JZ   maskdone
	MOVQ CX, R10
	SHLQ $4, R10
	LEAQ -16(SI)(R10*1), SI // the last pair
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

maskdone:
	MOVQ AX, ret+40(FP)
	RET

// func occSurvivorsPOPCNT(run []uint64, surv []int32, off int32, sq uint64, slack int) int
//
// Stores off+i for every word run[i] within slack of sq on both sides and
// returns how many it stored. The branches are firstWord's: on occurrence
// words few slots pass, and the predictor learns it.
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
	TESTQ CX, CX
	JZ   survdone
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
