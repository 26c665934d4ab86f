//go:build !purego

#include "textflag.h"

// Every kernel here multiplies with VMULPD/VMULSD and adds with VADDPD/VADDSD:
// two roundings, as Go's x*y then +, and never a fused multiply-add. Scalar
// work uses the VEX forms too (a legacy SSE op after a VEX-256 one stalls on
// the upper halves), and every return runs VZEROUPPER.

// TILE is how many of the listed rows one sweep of dst adds. A block's
// accumulators are stored back to dst after each tile and reloaded for the
// next, exactly, so tiling leaves every chain as it was; it keeps a sweep's
// rows few enough to stay in cache when the rows are long (a Gram of several
// hundred cuts).
#define TILE 32

// func addScaledRowsAVX(dst, data []float64, stride int, idx []int, coef []float64)
//
// dst[j] += coef[k]·data[idx[k]·stride + j] for k ascending, one element per
// lane. Per tile of rows, the outer loop walks dst in blocks of 32 elements
// (eight YMM accumulators), then of 4 (one), then one at a time; for each
// block the inner loop runs over every k of the tile, so an element's chain
// is the scalar one: VMULPD rounds the product, VADDPD the sum.
// Registers: AX = rows left after this tile, DI = &dst[j], SI = &data[j],
// CX = elements left, DX = stride in bytes, R8 = idx and R9 = coef at the
// tile's first row, R10 = rows in the tile, R11 = k within it, R12 = row k at
// j, Y8 = coef[k] in all four lanes.
TEXT ·addScaledRowsAVX(SB), NOSPLIT, $0-104
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

block32:
	CMPQ    CX, $32
	JLT     block4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    R11, R11

loop32:
	MOVQ         (R8)(R11*8), R12
	IMULQ        DX, R12
	ADDQ         SI, R12
	VBROADCASTSD (R9)(R11*8), Y8
	VMULPD       0(R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R12), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R12), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R12), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R12), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R12), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R12), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R12), Y8, Y9
	VADDPD       Y9, Y7, Y7
	INCQ         R11
	CMPQ         R11, R10
	JLT          loop32

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $32, CX
	JMP     block32

block4:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPD 0(DI), Y0
	XORQ    R11, R11

loop4:
	MOVQ         (R8)(R11*8), R12
	IMULQ        DX, R12
	ADDQ         SI, R12
	VBROADCASTSD (R9)(R11*8), Y8
	VMULPD       0(R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         R11
	CMPQ         R11, R10
	JLT          loop4

	VMOVUPD Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     block4

tail:
	TESTQ  CX, CX
	JEQ    nexttile
	VMOVSD 0(DI), X0
	XORQ   R11, R11

loop1:
	MOVQ   (R8)(R11*8), R12
	IMULQ  DX, R12
	ADDQ   SI, R12
	VMOVSD (R9)(R11*8), X8
	VMULSD 0(R12), X8, X9
	VADDSD X9, X0, X0
	INCQ   R11
	CMPQ   R11, R10
	JLT    loop1

	VMOVSD X0, 0(DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    tail

nexttile:
	LEAQ (R8)(R10*8), R8
	LEAQ (R9)(R10*8), R9
	JMP  tile

done:
	VZEROUPPER
	RET

// func dot4AVX(v, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64)
//
// Lane i of Y0 is row i's sum. A block of four columns j..j+3 loads v once
// and makes the 4×4 products, row by row; two unpacks and a 128-bit permute
// transpose them into one vector per column, [r0[j]·v[j] … r3[j]·v[j]], and
// those are added into Y0 for j ascending. So each lane adds its row's
// products one at a time in index order from +0: bitwise the row's Dot. The
// column tail broadcasts v[j] and gathers r0[j]…r3[j] into one vector.
// Registers: SI = &v[0], R8–R11 = &r0[0]…&r3[0], AX = j, DX = the columns
// in whole blocks, CX = len(v).
TEXT ·dot4AVX(SB), NOSPLIT, $0-152
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	MOVQ   r0_base+24(FP), R8
	MOVQ   r1_base+48(FP), R9
	MOVQ   r2_base+72(FP), R10
	MOVQ   r3_base+96(FP), R11
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

cols4:
	CMPQ       AX, DX
	JGE        cols1
	VMOVUPD    (SI)(AX*8), Y1
	VMULPD     (R8)(AX*8), Y1, Y2    // a: row 0's four products
	VMULPD     (R9)(AX*8), Y1, Y3    // b
	VMULPD     (R10)(AX*8), Y1, Y4   // c
	VMULPD     (R11)(AX*8), Y1, Y5   // d
	VUNPCKLPD  Y3, Y2, Y6            // a0 b0 a2 b2
	VUNPCKHPD  Y3, Y2, Y7            // a1 b1 a3 b3
	VUNPCKLPD  Y5, Y4, Y8            // c0 d0 c2 d2
	VUNPCKHPD  Y5, Y4, Y9            // c1 d1 c3 d3
	VPERM2F128 $0x20, Y8, Y6, Y2     // column j:   a0 b0 c0 d0
	VPERM2F128 $0x20, Y9, Y7, Y3     // column j+1: a1 b1 c1 d1
	VPERM2F128 $0x31, Y8, Y6, Y4     // column j+2: a2 b2 c2 d2
	VPERM2F128 $0x31, Y9, Y7, Y5     // column j+3: a3 b3 c3 d3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y0, Y0
	VADDPD     Y4, Y0, Y0
	VADDPD     Y5, Y0, Y0
	ADDQ       $4, AX
	JMP        cols4

cols1:
	CMPQ         AX, CX
	JGE          done
	VBROADCASTSD (SI)(AX*8), Y1
	VMOVSD       (R8)(AX*8), X2
	VMOVHPD      (R9)(AX*8), X2, X2
	VMOVSD       (R10)(AX*8), X3
	VMOVHPD      (R11)(AX*8), X3, X3
	VINSERTF128  $1, X3, Y2, Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y2, Y0, Y0
	INCQ         AX
	JMP          cols1

done:
	VEXTRACTF128 $1, Y0, X1
	VZEROUPPER
	VMOVSD       X0, s0+120(FP)
	VMOVHPD      X0, s1+128(FP)
	VMOVSD       X1, s2+136(FP)
	VMOVHPD      X1, s3+144(FP)
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
