//go:build !purego

package mat

import "plos/internal/cpu"

// The AVX kernels in kernels_amd64.s run when cpu.AVX is set, the Go loops
// otherwise. Neither path uses a fused multiply-add, so both give the same
// bits; the choice only sets the speed.

func addScaledRows(dst, data []float64, stride int, idx []int, coef []float64) {
	if cpu.AVX {
		addScaledRowsAVX(dst, data, stride, idx, coef)
		return
	}
	addScaledRowsGeneric(dst, data, stride, idx, coef)
}

func dot4(v, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	if cpu.AVX {
		n := len(v)
		return dot4AVX(v, r0[:n], r1[:n], r2[:n], r3[:n])
	}
	return dot4Generic(v, r0, r1, r2, r3)
}

func dot4x4(dst *[16]float64, v, r *[4][]float64) {
	if cpu.AVX {
		dot4x4AVX(dst, v, r)
		return
	}
	dot4x4Generic(dst, v, r)
}

func addRows4(dst []float64, r *[4][]float64, c *[4]float64) {
	if cpu.AVX {
		addRows4AVX(dst, r, c)
		return
	}
	addRows4Generic(dst, r, c)
}

// addScaledRowsAVX is AddScaledRows's kernel on arguments AddScaledRows has
// checked: each step is VMULPD then VADDPD, never a fused multiply-add, so
// every lane rounds as the scalar AddScaled does.
//
//go:noescape
func addScaledRowsAVX(dst, data []float64, stride int, idx []int, coef []float64)

// dot4AVX is dot4 with the four sums in the lanes of one YMM accumulator;
// every row must hold at least len(v) elements.
//
//go:noescape
func dot4AVX(v, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64)

// dot4x4AVX is dot4x4 with v[a]'s four sums in the lanes of accumulator a;
// every vector and row must hold at least len(v[0]) elements.
//
//go:noescape
func dot4x4AVX(dst *[16]float64, v, r *[4][]float64)

// addRows4AVX is addRows4 four columns per VMULPD/VADDPD step; every row
// must hold at least len(dst) elements.
//
//go:noescape
func addRows4AVX(dst []float64, r *[4][]float64, c *[4]float64)
