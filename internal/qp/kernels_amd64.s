//go:build !purego

#include "textflag.h"

// The FISTA passes of passes.go, four elements per YMM vector
// and a VEX scalar tail, each bitwise its Go loop:
//
//   - every product is VMULPD/VMULSD and every sum VADDPD/VADDSD, never a
//     fused multiply-add;
//   - a running sum takes one lane at a time in index order with VADDSD, a
//     lane the loop's branch skips being added as +0 (the sums start at +0,
//     so never reach −0, and s + (+0) is s);
//   - a non-clamp shift keeps v−θ under the mask of v−θ > 0 (VANDPD), a clamp
//     shift drops v under the mask of v < 0 (VANDNPD), so it keeps −0 and NaN;
//   - the support test v ≠ 0 is NEQ_UQ, true for NaN as Go's != is, and the
//     support is compacted branch-free: every entry is stored at position k,
//     and k advances by its mask bit (BT, ADC);
//   - the residual max is VMAXPD with the running max as the second source,
//     which keeps the max when the new term is NaN, as d > res does.
//
// Every return runs VZEROUPPER.

// Compare predicates.
#define GT_OQ $0x1e
#define LT_OQ $0x11
#define NEQ_UQ $0x04

// popcnt4 is the number of set bits of each 4-bit VMOVMSKPD mask.
DATA popcnt4<>+0(SB)/8, $0x0302020102010100
DATA popcnt4<>+8(SB)/8, $0x0403030203020201
GLOBL popcnt4<>(SB), RODATA|NOPTR, $16

// absmask clears the sign bit of four lanes.
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
DATA absmask<>+8(SB)/8, $0x7fffffffffffffff
DATA absmask<>+16(SB)/8, $0x7fffffffffffffff
DATA absmask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $32

// ADDLANES adds the four lanes of Y register v (X register xv) to the low
// lane of X register s, lane 0 first; it overwrites v and tmp.
#define ADDLANES(v, xv, s, tmp) \
	VADDSD       xv, s, s     \
	VUNPCKHPD    xv, xv, tmp  \
	VADDSD       tmp, s, s    \
	VEXTRACTF128 $1, v, xv    \
	VADDSD       xv, s, s     \
	VUNPCKHPD    xv, xv, tmp  \
	VADDSD       tmp, s, s

// func stepAVX(xNext, y, grad, c []float64, negStep float64) (sum float64, m int)
//
// xNext[i] = y[i] + negStep·(grad[i] − c[i]); X0 sums the positives, BX
// counts them. Registers: DI = &xNext[0], SI = &y[0], R8 = &grad[0],
// R9 = &c[0], AX = i, CX = n, DX = n rounded down to 4, R13 = &popcnt4,
// Y15 = negStep, Y14 = +0.
TEXT ·stepAVX(SB), NOSPLIT, $0-120
	MOVQ         xNext_base+0(FP), DI
	MOVQ         xNext_len+8(FP), CX
	MOVQ         y_base+24(FP), SI
	MOVQ         grad_base+48(FP), R8
	MOVQ         c_base+72(FP), R9
	VBROADCASTSD negStep+96(FP), Y15
	VXORPD       Y14, Y14, Y14
	VXORPD       X0, X0, X0
	XORQ         BX, BX
	LEAQ         popcnt4<>(SB), R13
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX

sloop4:
	CMPQ      AX, DX
	JGE       stail
	VMOVUPD   (R8)(AX*8), Y1
	VSUBPD    (R9)(AX*8), Y1, Y1  // grad − c
	VMULPD    Y15, Y1, Y1         // negStep·(grad − c)
	VADDPD    (SI)(AX*8), Y1, Y1  // y + …
	VMOVUPD   Y1, (DI)(AX*8)
	VCMPPD    GT_OQ, Y14, Y1, Y2  // v > 0
	VMOVMSKPD Y2, R10
	MOVBQZX   (R13)(R10*1), R10
	ADDQ      R10, BX
	VANDPD    Y1, Y2, Y3
	ADDLANES(Y3, X3, X0, X4)
	ADDQ      $4, AX
	JMP       sloop4

stail:
	CMPQ      AX, CX
	JGE       sdone
	VMOVSD    (R8)(AX*8), X1
	VSUBSD    (R9)(AX*8), X1, X1
	VMULSD    X15, X1, X1
	VADDSD    (SI)(AX*8), X1, X1
	VMOVSD    X1, (DI)(AX*8)
	VCMPSD    GT_OQ, X14, X1, X2
	VMOVMSKPD X2, R10
	ANDQ      $1, R10
	ADDQ      R10, BX
	VANDPD    X1, X2, X3
	VADDSD    X3, X0, X0
	INCQ      AX
	JMP       stail

sdone:
	VZEROUPPER
	VMOVSD X0, sum+104(FP)
	MOVQ   BX, m+112(FP)
	RET

// SHIFT4 shifts the four entries in Y1 by θ (Y15), or clamps them when R12 is
// set; Y14 is +0 and Y2 is overwritten. The branch goes the same way for a
// whole call.
#define SHIFT4(clampLabel, doneLabel) \
	TESTQ  R12, R12            \
	JNE    clampLabel          \
	VSUBPD Y15, Y1, Y1         \
	VCMPPD GT_OQ, Y14, Y1, Y2  \
	VANDPD Y1, Y2, Y1          \
	JMP    doneLabel           \
clampLabel:                        \
	VCMPPD  LT_OQ, Y14, Y1, Y2 \
	VANDNPD Y1, Y2, Y1         \
doneLabel:

// SHIFT1 is SHIFT4 on the low lane of X1.
#define SHIFT1(clampLabel, doneLabel) \
	TESTQ  R12, R12            \
	JNE    clampLabel          \
	VSUBSD X15, X1, X1         \
	VCMPSD GT_OQ, X14, X1, X2  \
	VANDPD X1, X2, X1          \
	JMP    doneLabel           \
clampLabel:                        \
	VCMPSD  LT_OQ, X14, X1, X2 \
	VANDNPD X1, X2, X1         \
doneLabel:

// LIST4 lists the non-zero entries of Y1, indices AX…AX+3: each is stored at
// supp[k] (R13) and vals[k] (DI), and k (BX) advances by its v ≠ 0 bit.
// Overwrites Y2, X4, R10 and R11.
#define LIST4 \
	VCMPPD       NEQ_UQ, Y14, Y1, Y2 \
	VMOVMSKPD    Y2, R10             \
	VEXTRACTF128 $1, Y1, X4          \
	MOVQ         AX, (R13)(BX*8)     \
	VMOVSD       X1, (DI)(BX*8)      \
	BTQ          $0, R10             \
	ADCQ         $0, BX              \
	LEAQ         1(AX), R11          \
	MOVQ         R11, (R13)(BX*8)    \
	VMOVHPD      X1, (DI)(BX*8)      \
	BTQ          $1, R10             \
	ADCQ         $0, BX              \
	LEAQ         2(AX), R11          \
	MOVQ         R11, (R13)(BX*8)    \
	VMOVSD       X4, (DI)(BX*8)      \
	BTQ          $2, R10             \
	ADCQ         $0, BX              \
	LEAQ         3(AX), R11          \
	MOVQ         R11, (R13)(BX*8)    \
	VMOVHPD      X4, (DI)(BX*8)      \
	BTQ          $3, R10             \
	ADCQ         $0, BX

// LIST1 is LIST4 for the low lane of X1, index AX.
#define LIST1 \
	VCMPSD    NEQ_UQ, X14, X1, X2 \
	VMOVMSKPD X2, R10             \
	ANDQ      $1, R10             \
	MOVQ      AX, (R13)(BX*8)     \
	VMOVSD    X1, (DI)(BX*8)      \
	ADDQ      R10, BX

// func supportAVX(z []float64, supp []int, vals []float64, theta float64, clamp bool) (k int)
//
// Registers: SI = &z[0], R13 = &supp[0], DI = &vals[0], AX = i, CX = n,
// DX = n rounded down to 4, BX = k, R12 = clamp, Y15 = θ, Y14 = +0.
TEXT ·supportAVX(SB), NOSPLIT, $0-96
	MOVQ         z_base+0(FP), SI
	MOVQ         z_len+8(FP), CX
	MOVQ         supp_base+24(FP), R13
	MOVQ         vals_base+48(FP), DI
	VBROADCASTSD theta+72(FP), Y15
	MOVBQZX      clamp+80(FP), R12
	VXORPD       Y14, Y14, Y14
	XORQ         BX, BX
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX

uloop4:
	CMPQ    AX, DX
	JGE     utail
	VMOVUPD (SI)(AX*8), Y1
	SHIFT4(uclamp4, ushifted4)
	VMOVUPD Y1, (SI)(AX*8)
	LIST4
	ADDQ    $4, AX
	JMP     uloop4

utail:
	CMPQ   AX, CX
	JGE    udone
	VMOVSD (SI)(AX*8), X1
	SHIFT1(uclamp1, ushifted1)
	VMOVSD X1, (SI)(AX*8)
	LIST1
	INCQ   AX
	JMP    utail

udone:
	VZEROUPPER
	MOVQ BX, k+88(FP)
	RET

// func lastPassAVX(z, y, x []float64, supp []int, vals []float64, theta float64, clamp bool, lip, beta float64) (k int, res, dot, ySum float64, yPos int)
//
// supportAVX's pass, which per entry v (its shifted z), y_i and x_i also
// takes the residual term |v − y_i|·lip into the lane maxima of Y10, adds
// (y_i − v)(v − x_i) to the dot (X9), writes e = v + β(v − x_i) to y_i and
// adds it to ySum (X8) and counts it (R14) when e > 0. Every d is +0 or above
// or NaN, so the four lane maxima, NaNs skipped, reduce to the running max in
// any order. Registers: as supportAVX, plus R8 = &y[0], R9 = &x[0],
// DX = &popcnt4, Y13 = lip, Y12 = β, Y11 = absmask.
TEXT ·lastPassAVX(SB), NOSPLIT, $0-192
	MOVQ         z_base+0(FP), SI
	MOVQ         z_len+8(FP), CX
	MOVQ         y_base+24(FP), R8
	MOVQ         x_base+48(FP), R9
	MOVQ         supp_base+72(FP), R13
	MOVQ         vals_base+96(FP), DI
	VBROADCASTSD theta+120(FP), Y15
	MOVBQZX      clamp+128(FP), R12
	VBROADCASTSD lip+136(FP), Y13
	VBROADCASTSD beta+144(FP), Y12
	VMOVUPD      absmask<>(SB), Y11
	LEAQ         popcnt4<>(SB), DX
	VXORPD       Y14, Y14, Y14
	VXORPD       Y10, Y10, Y10
	VXORPD       X9, X9, X9
	VXORPD       X8, X8, X8
	XORQ         R14, R14
	XORQ         BX, BX
	XORQ         AX, AX

lloop4:
	LEAQ      4(AX), R10
	CMPQ      R10, CX
	JGT       lreduce
	VMOVUPD   (SI)(AX*8), Y1
	SHIFT4(lclamp4, lshifted4)
	VMOVUPD   Y1, (SI)(AX*8)
	VMOVUPD   (R8)(AX*8), Y2
	VMOVUPD   (R9)(AX*8), Y3
	VSUBPD    Y2, Y1, Y4          // v − y
	VANDPD    Y11, Y4, Y4
	VMULPD    Y13, Y4, Y4         // |v − y|·lip
	VMAXPD    Y10, Y4, Y10        // d > max ? d : max
	VSUBPD    Y1, Y2, Y5          // y − v
	VSUBPD    Y3, Y1, Y6          // v − x
	VMULPD    Y6, Y5, Y5
	ADDLANES(Y5, X5, X9, X0)
	VMULPD    Y12, Y6, Y6         // β(v − x)
	VADDPD    Y6, Y1, Y6          // e
	VMOVUPD   Y6, (R8)(AX*8)
	VCMPPD    GT_OQ, Y14, Y6, Y7  // e > 0
	VMOVMSKPD Y7, R10
	MOVBQZX   (DX)(R10*1), R10
	ADDQ      R10, R14
	VANDPD    Y6, Y7, Y7
	ADDLANES(Y7, X7, X8, X0)
	LIST4
	ADDQ      $4, AX
	JMP       lloop4

lreduce:
	VEXTRACTF128 $1, Y10, X0
	VMAXPD       X0, X10, X10
	VUNPCKHPD    X10, X10, X0
	VMAXSD       X0, X10, X10

ltail:
	CMPQ      AX, CX
	JGE       ldone
	VMOVSD    (SI)(AX*8), X1
	SHIFT1(lclamp1, lshifted1)
	VMOVSD    X1, (SI)(AX*8)
	VMOVSD    (R8)(AX*8), X2
	VMOVSD    (R9)(AX*8), X3
	VSUBSD    X2, X1, X4
	VANDPD    X11, X4, X4
	VMULSD    X13, X4, X4
	VMAXSD    X10, X4, X10
	VSUBSD    X1, X2, X5
	VSUBSD    X3, X1, X6
	VMULSD    X6, X5, X5
	VADDSD    X5, X9, X9
	VMULSD    X12, X6, X6
	VADDSD    X6, X1, X6
	VMOVSD    X6, (R8)(AX*8)
	VCMPSD    GT_OQ, X14, X6, X7
	VMOVMSKPD X7, R10
	ANDQ      $1, R10
	ADDQ      R10, R14
	VANDPD    X6, X7, X7
	VADDSD    X7, X8, X8
	LIST1
	INCQ      AX
	JMP       ltail

ldone:
	VZEROUPPER
	MOVQ   BX, k+152(FP)
	VMOVSD X10, res+160(FP)
	VMOVSD X9, dot+168(FP)
	VMOVSD X8, ySum+176(FP)
	MOVQ   R14, yPos+184(FP)
	RET
