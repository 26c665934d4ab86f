//go:build !purego

package mat

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestKernelPathMatchesCPUID holds the path chosen at init to the CPU's AVX
// flag as the Linux kernel reports it in /proc/cpuinfo, which it sets only
// when the CPU has AVX and the kernel saves the YMM state: a detector that
// wrongly reads no AVX would otherwise fall back to the Go loops unseen, with
// every bit test still passing.
func TestKernelPathMatchesCPUID(t *testing.T) {
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
		if want := slices.Contains(strings.Fields(flags), "avx"); useAVX != want {
			t.Fatalf("useAVX = %v, /proc/cpuinfo lists avx: %v", useAVX, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
