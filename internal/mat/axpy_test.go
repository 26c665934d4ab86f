package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// edgeFloat draws mostly ordinary values of mixed scale, and now and then a
// signed zero, a subnormal or a value whose products underflow; with
// nonfinite, also an infinity, a NaN or a value whose products overflow.
func edgeFloat(r *rand.Rand, nonfinite bool) float64 {
	c := r.Intn(24)
	if !nonfinite && (c == 3 || c == 4 || c == 5 || c == 7) {
		c = 8
	}
	switch c {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(1<<20))
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	case 5:
		return math.NaN()
	case 6:
		return 1e-170 * r.NormFloat64()
	case 7:
		return 1e300 * r.NormFloat64()
	default:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
	}
}

// sameOrNaN fails unless got and want carry the same bits, or are both NaN:
// which NaN an operation on two NaNs returns is not specified.
func sameOrNaN(t *testing.T, what string, got, want Vector) {
	t.Helper()
	for j := range want {
		g, w := got[j], want[j]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d of %d = %v (%#x), want %v (%#x)", what, j, len(want),
				g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// FuzzAddScaledRowsMatchesAddScaled holds the kernel and the generic loop to
// successive AddScaled calls, element by element, on rows drawn repeated and
// out of order, a non-zero starting dst and edge values everywhere. The seed
// corpus covers every length 0–72, so each remainder of the 32-lane blocks
// and each mask of the remainder's pass, and up to 79 rows, so several tiles
// of them; each once with finite values alone, where a wrong product cannot
// hide behind a NaN, and once with infinities and NaNs. The elements just
// past dst must be left as they were.
func FuzzAddScaledRowsMatchesAddScaled(f *testing.F) {
	for n := 0; n <= 72; n++ {
		f.Add(int64(n), uint8(n), uint8(2*n), false)
		f.Add(int64(n), uint8(n), uint8(2*n), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, cols, picks uint8, nonfinite bool) {
		r := rand.New(rand.NewSource(seed))
		n, rows := int(cols)%73, 1+r.Intn(6)
		m := NewMatrix(rows, n)
		for i := range m.Data {
			m.Data[i] = edgeFloat(r, nonfinite)
		}
		idx, coef := make([]int, int(picks)%80), make([]float64, int(picks)%80)
		for k := range idx {
			idx[k], coef[k] = r.Intn(rows), edgeFloat(r, nonfinite)
		}
		start := make(Vector, n)
		for j := range start {
			start[j] = edgeFloat(r, nonfinite)
		}
		want := start.Clone()
		for k, i := range idx {
			want.AddScaled(coef[k], m.Row(i))
		}
		// dst sits in a longer array whose tail must stay as it was: the
		// kernel's masked remainder writes no lane past dst.
		backing := make(Vector, n+8)
		for j := range backing[n:] {
			backing[n+j] = float64(j + 1)
		}
		got := backing[:n:n]
		copy(got, start)
		AddScaledRows(got, m, idx, coef)
		sameOrNaN(t, fmt.Sprintf("AddScaledRows over rows %v", idx), got, want)
		sameOrNaN(t, "the elements past dst", backing[n:], Vector{1, 2, 3, 4, 5, 6, 7, 8})
		gen := start.Clone()
		addScaledRowsGeneric(gen, m.Data, m.Cols, idx, coef)
		sameOrNaN(t, fmt.Sprintf("generic loop over rows %v", idx), gen, want)
	})
}

// TestAddScaledRowsChecksBeforeArithmetic: a bad row index, a coefficient
// count that differs from the index count and a dst of the wrong length each
// panic, and dst is left as it was.
func TestAddScaledRowsChecksBeforeArithmetic(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	for _, tc := range []struct {
		name string
		dst  Vector
		idx  []int
		coef []float64
	}{
		{"row past the end", Vector{7, 8, 9}, []int{0, 2}, []float64{1, 1}},
		{"negative row", Vector{7, 8, 9}, []int{1, -1}, []float64{1, 1}},
		{"short coef", Vector{7, 8, 9}, []int{0, 1}, []float64{1}},
		{"short dst", Vector{7, 8}, []int{0}, []float64{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.dst.Clone()
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
				if !tc.dst.Equal(before, 0) {
					t.Errorf("dst = %v after the panic, was %v", tc.dst, before)
				}
			}()
			AddScaledRows(tc.dst, m, tc.idx, tc.coef)
		})
	}
}

// BenchmarkAddScaledRows times the kernel against the generic loop at five
// shapes: central-cut's FISTA product (n = 157 lanes over a 90-row support of
// the Gram) and the same in its late rounds (270 cuts, 150 in the support), a
// MostViolated aggregate (40 selected rows of dimension 562), a Gram of 600
// cuts too large for cache with 450 in the support, and shard-plane's
// five-cut dual.
func BenchmarkAddScaledRows(b *testing.B) {
	for _, shape := range []struct{ rows, cols, picks int }{{157, 157, 90}, {270, 270, 150}, {100, 562, 40}, {600, 600, 450}, {5, 5, 5}} {
		r := rand.New(rand.NewSource(1))
		m := randMatrix(r, shape.rows, shape.cols)
		idx, coef := r.Perm(shape.rows)[:shape.picks], make([]float64, shape.picks)
		for k := range coef {
			coef[k] = r.NormFloat64()
		}
		dst := make(Vector, shape.cols)
		name := fmt.Sprintf("%dx%d,rows=%d", shape.rows, shape.cols, shape.picks)
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AddScaledRows(dst, m, idx, coef)
			}
		})
		b.Run(name+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addScaledRowsGeneric(dst, m.Data, m.Cols, idx, coef)
			}
		})
	}
}
