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

// iota holds 0, 1, …, 31: lane l of vector v compared with the elements
// left, r, gives the mask of 4v + l < r.
DATA iota<>+0(SB)/8, $0x0000000000000000
DATA iota<>+8(SB)/8, $0x3ff0000000000000
DATA iota<>+16(SB)/8, $0x4000000000000000
DATA iota<>+24(SB)/8, $0x4008000000000000
DATA iota<>+32(SB)/8, $0x4010000000000000
DATA iota<>+40(SB)/8, $0x4014000000000000
DATA iota<>+48(SB)/8, $0x4018000000000000
DATA iota<>+56(SB)/8, $0x401c000000000000
DATA iota<>+64(SB)/8, $0x4020000000000000
DATA iota<>+72(SB)/8, $0x4022000000000000
DATA iota<>+80(SB)/8, $0x4024000000000000
DATA iota<>+88(SB)/8, $0x4026000000000000
DATA iota<>+96(SB)/8, $0x4028000000000000
DATA iota<>+104(SB)/8, $0x402a000000000000
DATA iota<>+112(SB)/8, $0x402c000000000000
DATA iota<>+120(SB)/8, $0x402e000000000000
DATA iota<>+128(SB)/8, $0x4030000000000000
DATA iota<>+136(SB)/8, $0x4031000000000000
DATA iota<>+144(SB)/8, $0x4032000000000000
DATA iota<>+152(SB)/8, $0x4033000000000000
DATA iota<>+160(SB)/8, $0x4034000000000000
DATA iota<>+168(SB)/8, $0x4035000000000000
DATA iota<>+176(SB)/8, $0x4036000000000000
DATA iota<>+184(SB)/8, $0x4037000000000000
DATA iota<>+192(SB)/8, $0x4038000000000000
DATA iota<>+200(SB)/8, $0x4039000000000000
DATA iota<>+208(SB)/8, $0x403a000000000000
DATA iota<>+216(SB)/8, $0x403b000000000000
DATA iota<>+224(SB)/8, $0x403c000000000000
DATA iota<>+232(SB)/8, $0x403d000000000000
DATA iota<>+240(SB)/8, $0x403e000000000000
DATA iota<>+248(SB)/8, $0x403f000000000000
GLOBL iota<>(SB), RODATA|NOPTR, $256

// func addScaledRowsAVX(dst, data []float64, stride int, idx []int, coef []float64)
//
// dst[j] += coef[k]·data[idx[k]·stride + j] for k ascending, one element per
// lane. Per tile of rows, the outer loop walks dst in blocks of 32 elements
// (eight YMM accumulators), then takes the r < 32 elements left in one more
// block: four accumulators under the masks lane < r (Y12–Y15) when r < 16,
// else four whole and four masked. VMASKMOVPD loads a masked lane as 0 and
// stores none, so no element past dst or a row is touched. For each block
// the inner loop runs over every k of the tile, so an element's chain is the
// scalar one: VMULPD rounds the product, VADDPD the sum.
// Registers: AX = rows left after this tile, DI = &dst[j], SI = &data[j],
// CX = elements left, DX = stride in bytes, R8 = idx and R9 = coef at the
// tile's first row, R10 = rows in the tile, R11 = k within it, R12 = row k at
// j, R13 = &iota, Y8 = coef[k] in all four lanes.
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
	JLT     rest
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

rest:
	TESTQ      CX, CX
	JEQ        nexttile
	VCVTSI2SDQ CX, X8, X8
	VMOVDDUP   X8, X8
	VINSERTF128 $1, X8, Y8, Y8           // r = elements left, in every lane
	LEAQ       iota<>(SB), R13
	CMPQ       CX, $16
	JGE        rest8

	// r < 16: vectors 0–3 under the masks lane < r.
	VMOVUPD    0(R13), Y12
	VCMPPD     $0x11, Y8, Y12, Y12
	VMOVUPD    32(R13), Y13
	VCMPPD     $0x11, Y8, Y13, Y13
	VMOVUPD    64(R13), Y14
	VCMPPD     $0x11, Y8, Y14, Y14
	VMOVUPD    96(R13), Y15
	VCMPPD     $0x11, Y8, Y15, Y15
	VMASKMOVPD 0(DI), Y12, Y0
	VMASKMOVPD 32(DI), Y13, Y1
	VMASKMOVPD 64(DI), Y14, Y2
	VMASKMOVPD 96(DI), Y15, Y3
	XORQ       R11, R11

loop4m:
	MOVQ         (R8)(R11*8), R12
	IMULQ        DX, R12
	ADDQ         SI, R12
	VBROADCASTSD (R9)(R11*8), Y8
	VMASKMOVPD   0(R12), Y12, Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMASKMOVPD   32(R12), Y13, Y10
	VMULPD       Y10, Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMASKMOVPD   64(R12), Y14, Y11
	VMULPD       Y11, Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMASKMOVPD   96(R12), Y15, Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y3, Y3
	INCQ         R11
	CMPQ         R11, R10
	JLT          loop4m

	VMASKMOVPD Y0, Y12, 0(DI)
	VMASKMOVPD Y1, Y13, 32(DI)
	VMASKMOVPD Y2, Y14, 64(DI)
	VMASKMOVPD Y3, Y15, 96(DI)
	JMP        nexttile

	// 16 ≤ r < 32: vectors 0–3 whole, 4–7 under the masks lane < r.
rest8:
	VMOVUPD    128(R13), Y12
	VCMPPD     $0x11, Y8, Y12, Y12
	VMOVUPD    160(R13), Y13
	VCMPPD     $0x11, Y8, Y13, Y13
	VMOVUPD    192(R13), Y14
	VCMPPD     $0x11, Y8, Y14, Y14
	VMOVUPD    224(R13), Y15
	VCMPPD     $0x11, Y8, Y15, Y15
	VMOVUPD    0(DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMOVUPD    96(DI), Y3
	VMASKMOVPD 128(DI), Y12, Y4
	VMASKMOVPD 160(DI), Y13, Y5
	VMASKMOVPD 192(DI), Y14, Y6
	VMASKMOVPD 224(DI), Y15, Y7
	XORQ       R11, R11

loop8m:
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
	VMULPD       96(R12), Y8, Y9
	VADDPD       Y9, Y3, Y3
	VMASKMOVPD   128(R12), Y12, Y10
	VMULPD       Y10, Y8, Y10
	VADDPD       Y10, Y4, Y4
	VMASKMOVPD   160(R12), Y13, Y11
	VMULPD       Y11, Y8, Y11
	VADDPD       Y11, Y5, Y5
	VMASKMOVPD   192(R12), Y14, Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y6, Y6
	VMASKMOVPD   224(R12), Y15, Y10
	VMULPD       Y10, Y8, Y10
	VADDPD       Y10, Y7, Y7
	INCQ         R11
	CMPQ         R11, R10
	JLT          loop8m

	VMOVUPD    Y0, 0(DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	VMASKMOVPD Y4, Y12, 128(DI)
	VMASKMOVPD Y5, Y13, 160(DI)
	VMASKMOVPD Y6, Y14, 192(DI)
	VMASKMOVPD Y7, Y15, 224(DI)

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

// func dot4x4AVX(dst *[16]float64, v, r *[4][]float64)
//
// Accumulator a (Y8–Y11) holds v[a]'s four sums, lane k against row r[k]. A
// block of four columns j..j+3 loads the four rows and transposes them once,
// as dot4AVX transposes its products, into one vector per column,
// [r0[j] … r3[j]]; each v[a] then broadcasts v[a][j] against that vector and
// adds the product, for j ascending. So every lane adds its row's products
// one at a time in index order from +0, bitwise the row's Dot with v[a], and
// the transpose is paid once for sixteen sums. The column tail gathers
// r0[j]…r3[j] into one vector. Registers: R8–R11 = &v[0][0]…&v[3][0],
// R12–R14 and BX = &r[0][0]…&r[3][0], AX = j, DX = the columns in whole
// blocks, CX = len(v[0]).
TEXT ·dot4x4AVX(SB), NOSPLIT, $0-24
	MOVQ   v+8(FP), DI
	MOVQ   0(DI), R8
	MOVQ   8(DI), CX
	MOVQ   24(DI), R9
	MOVQ   48(DI), R10
	MOVQ   72(DI), R11
	MOVQ   r+16(FP), DI
	MOVQ   0(DI), R12
	MOVQ   24(DI), R13
	MOVQ   48(DI), R14
	MOVQ   72(DI), BX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

tcols4:
	CMPQ         AX, DX
	JGE          tcols1
	VMOVUPD      (R12)(AX*8), Y0
	VMOVUPD      (R13)(AX*8), Y1
	VMOVUPD      (R14)(AX*8), Y2
	VMOVUPD      (BX)(AX*8), Y3
	VUNPCKLPD    Y1, Y0, Y4            // a0 b0 a2 b2
	VUNPCKHPD    Y1, Y0, Y5            // a1 b1 a3 b3
	VUNPCKLPD    Y3, Y2, Y6            // c0 d0 c2 d2
	VUNPCKHPD    Y3, Y2, Y7            // c1 d1 c3 d3
	VPERM2F128   $0x20, Y6, Y4, Y0     // column j
	VPERM2F128   $0x20, Y7, Y5, Y1     // column j+1
	VPERM2F128   $0x31, Y6, Y4, Y2     // column j+2
	VPERM2F128   $0x31, Y7, Y5, Y3     // column j+3
	VBROADCASTSD (R8)(AX*8), Y4
	VMULPD       Y0, Y4, Y4
	VADDPD       Y4, Y8, Y8
	VBROADCASTSD (R9)(AX*8), Y5
	VMULPD       Y0, Y5, Y5
	VADDPD       Y5, Y9, Y9
	VBROADCASTSD (R10)(AX*8), Y6
	VMULPD       Y0, Y6, Y6
	VADDPD       Y6, Y10, Y10
	VBROADCASTSD (R11)(AX*8), Y7
	VMULPD       Y0, Y7, Y7
	VADDPD       Y7, Y11, Y11
	VBROADCASTSD 8(R8)(AX*8), Y4
	VMULPD       Y1, Y4, Y4
	VADDPD       Y4, Y8, Y8
	VBROADCASTSD 8(R9)(AX*8), Y5
	VMULPD       Y1, Y5, Y5
	VADDPD       Y5, Y9, Y9
	VBROADCASTSD 8(R10)(AX*8), Y6
	VMULPD       Y1, Y6, Y6
	VADDPD       Y6, Y10, Y10
	VBROADCASTSD 8(R11)(AX*8), Y7
	VMULPD       Y1, Y7, Y7
	VADDPD       Y7, Y11, Y11
	VBROADCASTSD 16(R8)(AX*8), Y4
	VMULPD       Y2, Y4, Y4
	VADDPD       Y4, Y8, Y8
	VBROADCASTSD 16(R9)(AX*8), Y5
	VMULPD       Y2, Y5, Y5
	VADDPD       Y5, Y9, Y9
	VBROADCASTSD 16(R10)(AX*8), Y6
	VMULPD       Y2, Y6, Y6
	VADDPD       Y6, Y10, Y10
	VBROADCASTSD 16(R11)(AX*8), Y7
	VMULPD       Y2, Y7, Y7
	VADDPD       Y7, Y11, Y11
	VBROADCASTSD 24(R8)(AX*8), Y4
	VMULPD       Y3, Y4, Y4
	VADDPD       Y4, Y8, Y8
	VBROADCASTSD 24(R9)(AX*8), Y5
	VMULPD       Y3, Y5, Y5
	VADDPD       Y5, Y9, Y9
	VBROADCASTSD 24(R10)(AX*8), Y6
	VMULPD       Y3, Y6, Y6
	VADDPD       Y6, Y10, Y10
	VBROADCASTSD 24(R11)(AX*8), Y7
	VMULPD       Y3, Y7, Y7
	VADDPD       Y7, Y11, Y11
	ADDQ         $4, AX
	JMP          tcols4

tcols1:
	CMPQ         AX, CX
	JGE          tdone
	VMOVSD       (R12)(AX*8), X0
	VMOVHPD      (R13)(AX*8), X0, X0
	VMOVSD       (R14)(AX*8), X1
	VMOVHPD      (BX)(AX*8), X1, X1
	VINSERTF128  $1, X1, Y0, Y0
	VBROADCASTSD (R8)(AX*8), Y4
	VMULPD       Y0, Y4, Y4
	VADDPD       Y4, Y8, Y8
	VBROADCASTSD (R9)(AX*8), Y5
	VMULPD       Y0, Y5, Y5
	VADDPD       Y5, Y9, Y9
	VBROADCASTSD (R10)(AX*8), Y6
	VMULPD       Y0, Y6, Y6
	VADDPD       Y6, Y10, Y10
	VBROADCASTSD (R11)(AX*8), Y7
	VMULPD       Y0, Y7, Y7
	VADDPD       Y7, Y11, Y11
	INCQ         AX
	JMP          tcols1

tdone:
	MOVQ    dst+0(FP), DI
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	VZEROUPPER
	RET

// func addRows4AVX(dst []float64, r *[4][]float64, c *[4]float64)
//
// dst[j] += ((c0·r0[j] + c1·r1[j]) + c2·r2[j]) + c3·r3[j]: per element the
// four products, rounded apart, are summed in row order and the total added
// to dst[j] last, as the Go loop writes it. Eight elements per pass in two
// YMM chains, then four, then a VEX scalar tail. Registers: DI = &dst[0],
// R8–R11 = &r0[0]…&r3[0], AX = j, CX = len(dst), Y12–Y15 = c0…c3 in every
// lane.
TEXT ·addRows4AVX(SB), NOSPLIT, $0-40
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         r+24(FP), SI
	MOVQ         0(SI), R8
	MOVQ         24(SI), R9
	MOVQ         48(SI), R10
	MOVQ         72(SI), R11
	MOVQ         c+32(FP), SI
	VBROADCASTSD 0(SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y15
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

rcols8:
	CMPQ    AX, DX
	JGE     rcols4
	VMULPD  (R8)(AX*8), Y12, Y0
	VMULPD  32(R8)(AX*8), Y12, Y4
	VMULPD  (R9)(AX*8), Y13, Y1
	VMULPD  32(R9)(AX*8), Y13, Y5
	VADDPD  Y1, Y0, Y0
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y14, Y2
	VMULPD  32(R10)(AX*8), Y14, Y6
	VADDPD  Y2, Y0, Y0
	VADDPD  Y6, Y4, Y4
	VMULPD  (R11)(AX*8), Y15, Y3
	VMULPD  32(R11)(AX*8), Y15, Y7
	VADDPD  Y3, Y0, Y0
	VADDPD  Y7, Y4, Y4
	VADDPD  (DI)(AX*8), Y0, Y0
	VADDPD  32(DI)(AX*8), Y4, Y4
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     rcols8

rcols4:
	MOVQ    CX, DX
	ANDQ    $-4, DX
	CMPQ    AX, DX
	JGE     rcols1
	VMULPD  (R8)(AX*8), Y12, Y0
	VMULPD  (R9)(AX*8), Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10)(AX*8), Y14, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  (R11)(AX*8), Y15, Y3
	VADDPD  Y3, Y0, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

rcols1:
	CMPQ    AX, CX
	JGE     rdone
	VMOVSD  (R8)(AX*8), X0
	VMULSD  X12, X0, X0
	VMOVSD  (R9)(AX*8), X1
	VMULSD  X13, X1, X1
	VADDSD  X1, X0, X0
	VMOVSD  (R10)(AX*8), X2
	VMULSD  X14, X2, X2
	VADDSD  X2, X0, X0
	VMOVSD  (R11)(AX*8), X3
	VMULSD  X15, X3, X3
	VADDSD  X3, X0, X0
	VADDSD  (DI)(AX*8), X0, X0
	VMOVSD  X0, (DI)(AX*8)
	INCQ    AX
	JMP     rcols1

rdone:
	VZEROUPPER
	RET
