package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestKernelPathMatchesCPUID holds AVX to the CPU's avx flag as the Linux
// kernel reports it in /proc/cpuinfo, which it sets only when the CPU has AVX
// and the kernel saves the YMM state: a detector that wrongly read no AVX
// would send mat and qp to their Go loops unseen, with every bit test still
// passing. Under the purego tag and off amd64, AVX must be false.
func TestKernelPathMatchesCPUID(t *testing.T) {
	if runtime.GOARCH != "amd64" || purego {
		if AVX {
			t.Fatalf("AVX = true on %s (purego %v)", runtime.GOARCH, purego)
		}
		return
	}
	if runtime.GOOS != "linux" {
		t.Skip("the reference flags come from /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no reference flags: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if want := slices.Contains(strings.Fields(flags), "avx"); AVX != want {
			t.Fatalf("AVX = %v, /proc/cpuinfo lists avx: %v", AVX, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
