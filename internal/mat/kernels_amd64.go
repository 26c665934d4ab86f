//go:build !purego

package mat

// useAVX is fixed at package init: the AVX kernels in kernels_amd64.s run
// when the CPU has AVX and the OS saves the YMM registers, and the Go loops
// otherwise. Neither path uses a fused multiply-add, so both give the same
// bits; the choice only sets the speed.
var useAVX = avxUsable()

// avxUsable reports CPUID.1:ECX's OSXSAVE (bit 27) and AVX (bit 28) bits and,
// only then (XGETBV faults without OSXSAVE), XCR0's SSE and AVX state bits
// (1 and 2): the CPU runs VEX-256 and the OS preserves the registers.
func avxUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sseAVXState = 1<<1 | 1<<2
	return xgetbv0()&sseAVXState == sseAVXState
}

func addScaledRows(dst, data []float64, stride int, idx []int, coef []float64) {
	if useAVX {
		addScaledRowsAVX(dst, data, stride, idx, coef)
		return
	}
	addScaledRowsGeneric(dst, data, stride, idx, coef)
}

func dot4(v, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	if useAVX {
		n := len(v)
		return dot4AVX(v, r0[:n], r1[:n], r2[:n], r3[:n])
	}
	return dot4Generic(v, r0, r1, r2, r3)
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

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0.
func xgetbv0() uint32
