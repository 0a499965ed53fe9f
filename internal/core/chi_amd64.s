#include "textflag.h"

// func geCount9(thr *[9 * 16]byte, p *byte, stride, groups, rows int, n *[9]int32)
//
// X0-X8 count, per byte lane, the bytes at or above each threshold:
// max(x, t) == x exactly when x >= t, and subtracting the 0xff of a
// true compare adds one. Every load is MOVOU, as p and thr need not be
// 16-byte aligned. PSADBW against zero sums each accumulator's bytes.
TEXT ·geCount9(SB), NOSPLIT, $0-48
	MOVQ thr+0(FP), AX
	MOVQ p+8(FP), SI
	MOVQ stride+16(FP), BX
	MOVQ groups+24(FP), CX
	MOVQ rows+32(FP), DX
	MOVQ n+40(FP), DI
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7
	PXOR X8, X8

row:
	MOVQ SI, R8
	MOVQ CX, R9

group:
	MOVOU (R8), X9
	MOVOU 0(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X0
	MOVOU 16(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X1
	MOVOU 32(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X2
	MOVOU 48(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X3
	MOVOU 64(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X4
	MOVOU 80(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X5
	MOVOU 96(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X6
	MOVOU 112(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X7
	MOVOU 128(AX), X10
	PMAXUB X9, X10
	PCMPEQB X9, X10
	PSUBB X10, X8
	ADDQ $16, R8
	DECQ R9
	JNZ  group
	ADDQ BX, SI
	DECQ DX
	JNZ  row

	PXOR X15, X15

#define FLUSH(acc, off) \
	PSADBW X15, acc;       \
	PSHUFD $0xee, acc, X9; \
	PADDQ  X9, acc;        \
	MOVQ   acc, R8;        \
	ADDL   R8, off(DI)

	FLUSH(X0, 0)
	FLUSH(X1, 4)
	FLUSH(X2, 8)
	FLUSH(X3, 12)
	FLUSH(X4, 16)
	FLUSH(X5, 20)
	FLUSH(X6, 24)
	FLUSH(X7, 28)
	FLUSH(X8, 32)
	RET
