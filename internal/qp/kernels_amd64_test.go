//go:build !purego

package qp

import (
	"fmt"
	"testing"

	"plos/internal/cpu"
	"plos/internal/mat"
)

// setKernels sends the passes to the AVX kernels (where the CPU has them) or
// to the Go loops, and returns the function that restores the path it found.
func setKernels(on bool) (restore func()) {
	was := useAVX
	useAVX = on && cpu.AVX
	return func() { useAVX = was }
}

// TestSolveKernelsMatchGo runs device duals — one group listing every cut,
// at n = 1…60 cuts, budgets that bind and that do not, cold and warm-started,
// some capped by MaxIter — once on the AVX passes and once on the Go loops,
// and holds x and the whole Info to each other bit for bit.
func TestSolveKernelsMatchGo(t *testing.T) {
	if !cpu.AVX {
		t.Skip("no AVX: both solves would run the Go loops")
	}
	defer setKernels(true)()
	var kern, gen Scratch
	for n := 1; n <= 60; n++ {
		for _, b := range []float64{1, 1e3} {
			p := cutDual(n, int64(n), b)
			opts := Options{MaxIter: 30 + 10*(n%4), Tol: 1e-10, LipschitzBound: mat.MaxEigenvalueUpperBound(p.G)}
			for _, warm := range []bool{false, true} {
				if warm {
					x, _, _ := gen.Solve(p, opts)
					opts.X0 = x.Clone()
				}
				useAVX = true
				kx, kinfo, kerr := kern.Solve(p, opts)
				useAVX = false
				gx, ginfo, gerr := gen.Solve(p, opts)
				if kerr != nil || gerr != nil {
					t.Fatal(kerr, gerr)
				}
				what := fmt.Sprintf("n=%d budget %g warm %v", n, b, warm)
				sameBits(t, what+": x", kx, gx)
				if kinfo.Iterations != ginfo.Iterations || kinfo.Converged != ginfo.Converged {
					t.Fatalf("%s: %+v, Go loops %+v", what, kinfo, ginfo)
				}
				sameBits(t, what+": residual, objective", mat.Vector{kinfo.Residual, kinfo.Objective},
					mat.Vector{ginfo.Residual, ginfo.Objective})
			}
		}
	}
}
