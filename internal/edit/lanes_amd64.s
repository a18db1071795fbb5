#include "textflag.h"

// func bandLanes(class *[256]uint8, bits *uint64, stride, m, k int, buf *byte, c *Lanes, live uint8) uint8
//
// boundedBand with one candidate per 64-bit lane of a ZMM register, all at
// the same text column. Per lane: the target bit 1<<(m-n+k) in Z2; left,
// k minus the target diagonal's score, in Z3; the column's window bit 0 in
// a class's words, 64-k+j, in Z8, and where it ends, 64-k+n, in Z4; pv and
// mv in Z0, Z1, which start alike. K5 holds the lanes with a column left
// (Z8 < Z4), K1 those of them whose left is not spent.
//
// Every eighth column takes the next eight bytes of each live lane — the
// first eight from c, then gathered at offsets Z5 into buf — and turns all
// 64 into their classes at once (CLASSES). Z6 holds those classes, a byte
// a column.
//
// Each column then cuts every lane's match word out of the two words of
// its class that the window straddles: the word-row (DI, and the next one
// at R12) and the shift are the column's, shared by all lanes, and only the
// class differs. The table is word-major. With at most sixteen classes
// (stride) the lower word-row is two loads, the upper one two registers
// (Z27, Z28) loaded when the window enters a new word, one VPSHRDVQ per
// eight classes gives all their windows, and one VPERMT2Q picks each
// lane's by its class (permcol). With more classes each lane's two words
// are gathered (gathercol). Each way has its own loop, around one STEP.
//
// The byte gathers are under K1, whose lanes' bytes lie inside buf. A lane's class is that of some byte and the column never
// passes the longest live lane's text, so the table reads stay inside it
// for every lane.

// CLASSES takes the next eight bytes of every lane, gathered into Z6, to
// their classes: the class map is four registers, Z21-Z24, and two
// VPERMI2B look a byte up in its lower and upper half, bit 7 picking one.
// It moves the offsets in Z5 on by eight and restarts the column count in
// BX. It uses K6 and Z14.
#define CLASSES \
	VPADDQ Z20, Z5, Z5 \
	VPMOVB2M  Z6, K6 \
	VMOVDQA64 Z6, Z14 \
	VPERMI2B  Z22, Z21, Z14 \
	VPERMI2B  Z24, Z23, Z6 \
	VMOVDQU8  Z6, K6, Z14 \
	VMOVDQA64 Z14, Z6 \
	MOVL   $8, BX

// NEXTBYTES gathers the next eight bytes of every live lane into Z6.
#define NEXTBYTES \
	KMOVW  K1, K6 \
	VPXORQ Z6, Z6, Z6 \
	VPGATHERQQ (R8)(Z5*1), K6, Z6

// STEP is one column of the recurrence on the match words in eq, its
// boolean steps folded by VPTERNLOGQ. The lanes of K5 whose target bit of
// d0 is clear spend one of left; those whose left goes negative or whose
// text ends leave K1, and the batch ends when K1 is empty. A lane out of K5
// no longer counts, so its left is its verdict: within k when not
// negative, at distance k-left. Then it counts the column down in R14,
// jumping to word when the window enters the next word, and in BX.
#define STEP(eq, word) \
	VPANDQ     Z0, eq, Z19 \
	VPORQ      Z1, eq, eq \
	VPADDQ     Z0, Z19, Z19 \
	VPTERNLOGQ $0xbe, eq, Z0, Z19 \
	VPTERNLOGQ $0xf1, Z0, Z19, Z1 \
	VPANDQ     Z19, Z0, Z0 \
	VPTESTNMQ  Z2, Z19, K5, K6 \
	VPSRLQ     $1, Z19, Z19 \
	VPTERNLOGQ $0xf1, Z1, Z19, Z0 \
	VPANDQ     Z19, Z1, Z1 \
	VPSUBQ     Z10, Z3, K6, Z3 \
	VPADDQ     Z10, Z8, Z8 \
	VPCMPQ     $1, Z4, Z8, K4, K5 \
	VPCMPQ     $5, Z11, Z3, K5, K1 \
	KORTESTW K1, K1 \
	JZ   done \
	DECL R14 \
	JZ   word \
	DECL BX

// In STEP, Z19 is d0 = ((eq&pv)+pv)^pv | eq | mv, Z1 then ph = mv |
// ^(d0|pv) and Z0 mh = pv & d0; after d0 >>= 1, Z0 is pv = mh | ^(d0|ph)
// and Z1 mv = ph & d0.

TEXT ·bandLanes(SB), NOSPLIT, $0-65
	MOVQ buf+40(FP), R8
	MOVQ c+48(FP), R11
	MOVBLZX live+56(FP), AX
	KMOVW AX, K4                   // the lanes asked for
	VMOVDQU64.Z 0(R11), K4, Z5     // the offsets of the lanes' next eight bytes
	VMOVDQU64.Z 192(R11), K4, Z6   // their first eight, read by the caller
	MOVQ class+0(FP), SI
	MOVQ bits+8(FP), R9
	MOVQ stride+16(FP), R13
	MOVL $1, AX
	VPBROADCASTQ AX, Z10           // one
	MOVL $8, AX
	VPBROADCASTQ AX, Z20           // eight
	MOVL $0xff, AX
	VPBROADCASTQ AX, Z7            // a byte
	VMOVDQU64 0(SI), Z21           // class
	VMOVDQU64 64(SI), Z22
	VMOVDQU64 128(SI), Z23
	VMOVDQU64 192(SI), Z24
	VPXORQ Z11, Z11, Z11           // zero
	VMOVDQU64.Z 64(R11), K4, Z4    // n
	VPBROADCASTQ m+24(FP), Z14
	VPSUBQ Z4, Z14, Z14            // the target diagonal m-n
	VPBROADCASTQ k+32(FP), Z15
	VPADDQ Z15, Z14, Z16
	VPSLLVQ Z16, Z10, Z2           // target
	VPABSQ Z14, Z14
	VPSUBQ Z14, Z15, Z3            // left = k - |m-n|
	MOVQ k+32(FP), CX
	MOVQ $-1, AX
	SHLQ CX, AX
	VPBROADCASTQ AX, Z0            // pv: +1 below the k virtual rows
	NOTQ AX
	VPBROADCASTQ AX, Z1            // mv: -1 on them
	MOVQ $64, DX
	SUBQ CX, DX                    // the first column's window bit 0 in a class's words
	VPBROADCASTQ DX, Z8
	VPADDQ Z8, Z4, Z4              // the end of each lane's columns
	VPCMPQ $1, Z4, Z8, K4, K5      // a column left
	KMOVW K5, K1
	MOVQ R13, R10
	SHLQ $3, R10                   // a word-row, in bytes
	MOVQ DX, AX
	SHRQ $6, AX
	IMULQ R10, AX
	LEAQ (R9)(AX*1), DI            // the word-row the window starts in
	LEAQ (DI)(R10*1), R12          // and the next
	ANDL $63, DX
	MOVL $64, R14
	SUBL DX, R14                   // columns before the window enters the next word
	KORTESTW K1, K1
	JZ   done
	CMPQ R13, $16
	JGT  gatherfirst
	MOVQ R13, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2                   // the classes' lanes of a word-row: 0-7
	KSHIFTRW $8, K2, K3            // and 8-15
	VMOVDQU64.Z (R12), K2, Z27     // the upper word-row
	VMOVDQU64.Z 64(R12), K3, Z28
	CLASSES
	JMP  permcol
	PCALIGN $64

permbytes:
	NEXTBYTES
	CLASSES
	JMP  permcol
	PCALIGN $64

permcol:
	VMOVDQU64.Z (DI), K2, Z16      // the lower word-row
	VMOVDQU64.Z 64(DI), K3, Z17
	VPSHRDVQ  Z8, Z27, Z16         // the windows of classes 0-7
	VPSHRDVQ  Z8, Z28, Z17         // and 8-15
	VPERMT2Q  Z17, Z6, Z16         // each lane's, by its class: eq
	VPSRLQ    $8, Z6, Z6
	STEP(Z16, permword)
	JNZ  permcol
	JMP  permbytes

permword:
	MOVL $64, R14
	ADDQ R10, DI
	ADDQ R10, R12
	VMOVDQU64.Z (R12), K2, Z27
	VMOVDQU64.Z 64(R12), K3, Z28
	DECL BX
	JNZ  permcol
	JMP  permbytes

gatherfirst:
	KXNORW K7, K7, K7              // all lanes
	CLASSES
	JMP  gathercol
	PCALIGN $64

gatherbytes:
	NEXTBYTES
	CLASSES
	JMP  gathercol
	PCALIGN $64

gathercol:
	VPANDQ Z7, Z6, Z18             // each lane's class
	VPSRLQ $8, Z6, Z6
	KMOVW  K7, K2                  // a gather clears its mask: a fresh copy of all ones
	KMOVW  K7, K3
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPGATHERQQ (DI)(Z18*8), K2, Z16
	VPGATHERQQ (R12)(Z18*8), K3, Z17
	VPSHRDVQ  Z8, Z17, Z16         // eq
	STEP(Z16, gatherword)
	JNZ  gathercol
	JMP  gatherbytes

gatherword:
	MOVL $64, R14
	ADDQ R10, DI
	ADDQ R10, R12
	DECL BX
	JNZ  gathercol
	JMP  gatherbytes

done:
	VPBROADCASTQ k+32(FP), Z15
	VPSUBQ  Z3, Z15, Z15
	VMOVDQU64 Z15, 128(R11)        // Dist = k - left
	VPCMPQ  $5, Z11, Z3, K4, K2    // within k: asked for, left not negative
	KMOVW   K2, AX
	MOVB    AX, ret+64(FP)
	VZEROUPPER
	RET
