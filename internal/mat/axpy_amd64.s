#include "textflag.h"

// TILE is how many of the listed rows one sweep of dst adds. A block's
// accumulators are stored back to dst after each tile and reloaded for the
// next, exactly, so tiling leaves every chain as it was; it keeps a sweep's
// rows few enough to stay in cache when the rows are long (a Gram of several
// hundred cuts).
#define TILE 32

// func addScaledRows(dst, data []float64, stride int, idx []int, coef []float64)
//
// dst[j] += coef[k]·data[idx[k]·stride + j] for k ascending, one element per
// SSE2 lane. Per tile of rows, the outer loop walks dst in blocks of 16
// elements (eight XMM accumulators), then of 4 (two), then one at a time;
// for each block the inner loop runs over every k of the tile, so an
// element's chain is the scalar one: MULPD rounds the product, ADDPD the sum.
// Registers: AX = rows left after this tile, DI = &dst[j], SI = &data[j],
// CX = elements left, DX = stride in bytes, R8 = idx and R9 = coef at the
// tile's first row, R10 = rows in the tile, R11 = k within it, R12 = row k at
// j, X8 = coef[k] in both lanes.
TEXT ·addScaledRows(SB), NOSPLIT, $0-104
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ idx_base+56(FP), R8
	MOVQ coef_base+80(FP), R9
	MOVQ idx_len+64(FP), AX

tile:
	TESTQ   AX, AX
	JEQ     done
	MOVQ    $TILE, R10
	CMPQ    AX, R10
	CMOVQLT AX, R10
	SUBQ    R10, AX
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    data_base+24(FP), SI

block16:
	CMPQ   CX, $16
	JLT    block4
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	XORQ   R11, R11

loop16:
	MOVQ     (R8)(R11*8), R12
	IMULQ    DX, R12
	ADDQ     SI, R12
	MOVSD    (R9)(R11*8), X8
	UNPCKLPD X8, X8
	MOVUPD   0(R12), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(R12), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   32(R12), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   48(R12), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	MOVUPD   64(R12), X9
	MULPD    X8, X9
	ADDPD    X9, X4
	MOVUPD   80(R12), X10
	MULPD    X8, X10
	ADDPD    X10, X5
	MOVUPD   96(R12), X11
	MULPD    X8, X11
	ADDPD    X11, X6
	MOVUPD   112(R12), X12
	MULPD    X8, X12
	ADDPD    X12, X7
	INCQ     R11
	CMPQ     R11, R10
	JLT      loop16

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, SI
	SUBQ   $16, CX
	JMP    block16

block4:
	CMPQ   CX, $4
	JLT    tail
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	XORQ   R11, R11

loop4:
	MOVQ     (R8)(R11*8), R12
	IMULQ    DX, R12
	ADDQ     SI, R12
	MOVSD    (R9)(R11*8), X8
	UNPCKLPD X8, X8
	MOVUPD   0(R12), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(R12), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	INCQ     R11
	CMPQ     R11, R10
	JLT      loop4

	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $4, CX
	JMP    block4

tail:
	TESTQ CX, CX
	JEQ   nexttile
	MOVSD 0(DI), X0
	XORQ  R11, R11

loop1:
	MOVQ  (R8)(R11*8), R12
	IMULQ DX, R12
	ADDQ  SI, R12
	MOVSD (R9)(R11*8), X8
	MOVSD 0(R12), X9
	MULSD X8, X9
	ADDSD X9, X0
	INCQ  R11
	CMPQ  R11, R10
	JLT   loop1

	MOVSD X0, 0(DI)
	ADDQ  $8, DI
	ADDQ  $8, SI
	DECQ  CX
	JMP   tail

nexttile:
	LEAQ (R8)(R10*8), R8
	LEAQ (R9)(R10*8), R9
	JMP  tile

done:
	RET
