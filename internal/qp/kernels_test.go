package qp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"plos/internal/mat"
)

// The pass fuzzers hold each dispatched pass — the AVX kernel on amd64 with
// AVX, the Go loop elsewhere — to its Go loop on copies of one input, bit for
// bit but NaN↔NaN, returns and every output entry the pass defines. Each seed
// corpus covers every length 0–72, so every remainder of the four-lane blocks,
// each once with finite values alone and once with infinities and NaNs.

// edgeFloat draws mostly ordinary values of mixed sign and scale, and now and
// then a signed zero or a subnormal; with nonfinite, also an infinity or a
// NaN.
func edgeFloat(r *rand.Rand, nonfinite bool) float64 {
	c := r.Intn(16)
	if !nonfinite && c >= 4 && c <= 6 {
		c = 8
	}
	switch c {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(r.Intn(1<<20)-1<<19)
	case 3:
		return 1e-300 * r.NormFloat64()
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.NaN()
	default:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(5)-2))
	}
}

func edgeVector(r *rand.Rand, n int, nonfinite bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = edgeFloat(r, nonfinite)
	}
	return v
}

// edgeTheta draws a threshold: +Inf (a zero budget's face), ±0, a value
// among x's entries, or an ordinary one.
func edgeTheta(r *rand.Rand, x []float64) float64 {
	switch c := r.Intn(6); {
	case c == 0:
		return math.Inf(1)
	case c == 1:
		return []float64{0, math.Copysign(0, -1)}[r.Intn(2)]
	case c == 2 && len(x) > 0:
		return x[r.Intn(len(x))]
	default:
		return r.NormFloat64()
	}
}

func passSeeds(f *testing.F) {
	for n := 0; n <= 72; n++ {
		f.Add(int64(n), uint8(n), false)
		f.Add(int64(n), uint8(n), true)
	}
}

func FuzzStepMatchesGo(f *testing.F) {
	passSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, nonfinite bool) {
		r := rand.New(rand.NewSource(seed))
		n := int(size) % 73
		y, grad, c := edgeVector(r, n, nonfinite), edgeVector(r, n, nonfinite), edgeVector(r, n, nonfinite)
		negStep := -math.Abs(edgeFloat(r, nonfinite))
		got, want := make([]float64, n), make([]float64, n)
		gs, gm := step(got, y, grad, c, negStep)
		ws, wm := stepGo(want, y, grad, c, negStep)
		what := fmt.Sprintf("step n=%d", n)
		sameOrNaN(t, what, got, want)
		sameOrNaN(t, what+": sum", mat.Vector{gs}, mat.Vector{ws})
		if gm != wm {
			t.Fatalf("%s: %d positives, Go loop %d", what, gm, wm)
		}
	})
}

func FuzzSupportMatchesGo(f *testing.F) {
	passSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, nonfinite bool) {
		r := rand.New(rand.NewSource(seed))
		n := int(size) % 73
		z := edgeVector(r, n, nonfinite)
		theta, clamp := edgeTheta(r, z), r.Intn(2) == 0
		if clamp {
			theta = 0
		}
		gz, wz := slices.Clone(z), slices.Clone(z)
		gsupp, wsupp := make([]int, n), make([]int, n)
		gvals, wvals := make([]float64, n), make([]float64, n)
		gk := support(gz, gsupp, gvals, theta, clamp)
		wk := supportGo(wz, wsupp, wvals, theta, clamp)
		what := fmt.Sprintf("support n=%d θ=%v clamp %v", n, theta, clamp)
		checkListed(t, what, gz, wz, gsupp[:gk], wsupp[:wk], gvals[:gk], wvals[:wk])
	})
}

func FuzzLastPassMatchesGo(f *testing.F) {
	passSeeds(f)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, nonfinite bool) {
		r := rand.New(rand.NewSource(seed))
		n := int(size) % 73
		z, y, x := edgeVector(r, n, nonfinite), edgeVector(r, n, nonfinite), edgeVector(r, n, nonfinite)
		theta, clamp := edgeTheta(r, z), r.Intn(2) == 0
		if clamp {
			theta = 0
		}
		lip, beta := math.Abs(edgeFloat(r, nonfinite))+1e-12, math.Abs(edgeFloat(r, nonfinite))
		gz, wz, gy, wy := slices.Clone(z), slices.Clone(z), slices.Clone(y), slices.Clone(y)
		gsupp, wsupp := make([]int, n), make([]int, n)
		gvals, wvals := make([]float64, n), make([]float64, n)
		gk, gres, gdot, gsum, gpos := lastPass(gz, gy, x, gsupp, gvals, theta, clamp, lip, beta)
		wk, wres, wdot, wsum, wpos := lastPassGo(wz, wy, x, wsupp, wvals, theta, clamp, lip, beta)
		what := fmt.Sprintf("last pass n=%d θ=%v clamp %v lip %v β %v", n, theta, clamp, lip, beta)
		checkListed(t, what, gz, wz, gsupp[:gk], wsupp[:wk], gvals[:gk], wvals[:wk])
		sameOrNaN(t, what+": y", gy, wy)
		sameOrNaN(t, what+": residual, dot, y's sum", mat.Vector{gres, gdot, gsum}, mat.Vector{wres, wdot, wsum})
		if gpos != wpos {
			t.Fatalf("%s: %d positives in y, Go loop %d", what, gpos, wpos)
		}
	})
}

// checkListed compares a shifted vector and its support listing.
func checkListed(t *testing.T, what string, gz, wz []float64, gsupp, wsupp []int, gvals, wvals []float64) {
	t.Helper()
	sameOrNaN(t, what+": z", gz, wz)
	if !slices.Equal(gsupp, wsupp) {
		t.Fatalf("%s: support %v, Go loop %v", what, gsupp, wsupp)
	}
	sameOrNaN(t, what+": support values", gvals, wvals)
}
