//go:build !purego

package cpu

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

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0.
func xgetbv0() uint32
