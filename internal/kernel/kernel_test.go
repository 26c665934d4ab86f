package kernel

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"plos/internal/mat"
)

func TestKernelValues(t *testing.T) {
	x := mat.Vector{1, 2}
	y := mat.Vector{3, -1}
	tests := []struct {
		name string
		k    Kernel
		want float64
	}{
		{"linear", Linear{}, 1},
		{"rbf", RBF{Gamma: 0.5}, math.Exp(-0.5 * 13)}, // ||x−y||² = 4 + 9
		{"poly", Polynomial{Degree: 2, C: 1}, 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.k.Eval(x, y); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Eval = %v, want %v", got, tc.want)
			}
		})
	}
	if (RBF{Gamma: 1}).Eval(x, x) != 1 {
		t.Error("RBF(x,x) should be 1")
	}
}

// Property: kernels are symmetric, and RBF is bounded in (0, 1].
func TestPropertyKernelSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := mat.Vector{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		y := mat.Vector{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.7}, Polynomial{Degree: 2, C: 1}} {
			if math.Abs(k.Eval(x, y)-k.Eval(y, x)) > 1e-12 {
				return false
			}
		}
		rbf := RBF{Gamma: 0.7}.Eval(x, y)
		return rbf > 0 && rbf <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomSamples draws n points of dimension dim from a seeded source.
func randomSamples(r *rand.Rand, n, dim int) []mat.Vector {
	xs := make([]mat.Vector, n)
	for i := range xs {
		xs[i] = make(mat.Vector, dim)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
	}
	return xs
}

// Property: below the rank cap, L·Lᵀ reproduces the kernel matrix within
// 1e-9 of its largest diagonal, and the pivot block is lower triangular.
func TestPropertyFactorReproducesGram(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := randomSamples(r, 2+r.Intn(60), 1+r.Intn(4))
		for _, k := range []Kernel{Linear{}, RBF{Gamma: 0.1 + r.Float64()}, Polynomial{Degree: 2, C: 1}} {
			fac, err := Factorize(xs, k)
			if err != nil || fac.L.Cols >= MaxRank {
				return false
			}
			var dmax float64
			for _, x := range xs {
				dmax = math.Max(dmax, k.Eval(x, x))
			}
			for i := range xs {
				for j := range xs {
					if math.Abs(fac.L.Row(i).Dot(fac.L.Row(j))-k.Eval(xs[i], xs[j])) > 1e-9*dmax {
						return false
					}
				}
			}
			for a, p := range fac.Pivots {
				for c := a + 1; c < len(fac.Pivots); c++ {
					if fac.L.At(p, c) != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGramIndexing: the factor's rows follow the samples' order, so the
// Gram it reproduces is indexed like the pooled (user, sample) list —
// here user 0's (1,0),(0,1) then user 1's (1,1) under the linear kernel.
func TestGramIndexing(t *testing.T) {
	xs := []mat.Vector{{1, 0}, {0, 1}, {1, 1}}
	fac, err := Factorize(xs, Linear{})
	if err != nil {
		t.Fatal(err)
	}
	if fac.L.Rows != 3 || fac.L.Cols != 2 {
		t.Fatalf("L is %d×%d, want 3×2", fac.L.Rows, fac.L.Cols)
	}
	// The largest diagonal, k((1,1),(1,1)) = 2, is the first pivot.
	if fac.Pivots[0] != 2 {
		t.Errorf("first pivot %d, want 2", fac.Pivots[0])
	}
	k := func(i, j int) float64 { return fac.L.Row(i).Dot(fac.L.Row(j)) }
	for _, e := range []struct {
		i, j int
		want float64
	}{{0, 2, 1}, {1, 2, 1}, {0, 1, 0}, {2, 2, 2}, {0, 0, 1}, {1, 1, 1}} {
		if got := k(e.i, e.j); math.Abs(got-e.want) > 1e-12 {
			t.Errorf("K[%d][%d] = %v, want %v", e.i, e.j, got, e.want)
		}
	}
}

// Property: under the linear kernel, kernel expansions agree with the
// explicit vectors they stand for. a = Σ c_i·Φ(x_i) has map coordinates
// Σ c_i·L_i, whose dots are the explicit dots; and the pivot weights
// Coefficients gives for a score any point y as a·y, on the training
// samples or off them.
func TestPropertyLinearExpansionConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6) + 2
		xs := randomSamples(r, n, 3)
		fac, err := Factorize(xs, Linear{})
		if err != nil {
			return false
		}
		ma, mb := mat.NewVector(fac.L.Cols), mat.NewVector(fac.L.Cols)
		va, vb := mat.NewVector(3), mat.NewVector(3)
		for i := 0; i < n; i++ {
			ca, cb := r.NormFloat64(), r.NormFloat64()
			ma.AddScaled(ca, fac.L.Row(i))
			mb.AddScaled(cb, fac.L.Row(i))
			va.AddScaled(ca, xs[i])
			vb.AddScaled(cb, xs[i])
		}
		if math.Abs(ma.Dot(mb)-va.Dot(vb)) > 1e-8*(1+math.Abs(va.Dot(vb))) {
			return false
		}
		beta := fac.Coefficients(ma)
		for _, y := range randomSamples(r, 5, 3) {
			var s float64
			for j, p := range fac.Pivots {
				s += beta[j] * Linear{}.Eval(xs[p], y)
			}
			if want := va.Dot(y); math.Abs(s-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// A degree-2 polynomial kernel on 2-D points spans the six monomials of
// degree at most 2, so the factor stops at rank 6 however many samples.
func TestFactorPolyStopsAtRank6(t *testing.T) {
	xs := randomSamples(rand.New(rand.NewSource(3)), 40, 2)
	fac, err := Factorize(xs, Polynomial{Degree: 2, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fac.L.Cols != 6 || len(fac.Pivots) != 6 {
		t.Errorf("rank %d with %d pivots, want 6", fac.L.Cols, len(fac.Pivots))
	}
}

// table is a kernel over 1-D index samples that reads a fixed matrix.
type table [][]float64

func (k table) Eval(x, y mat.Vector) float64 { return k[int(x[0])][int(y[0])] }

func TestFactorRefusals(t *testing.T) {
	xs := []mat.Vector{{0}, {1}}
	if _, err := Factorize(xs, table{{1, 2}, {2, 1}}); !errors.Is(err, ErrNotPSD) {
		t.Errorf("indefinite kernel: %v, want ErrNotPSD", err)
	}
	if _, err := Factorize(xs, table{{0, 0}, {0, 0}}); !errors.Is(err, ErrZeroKernel) {
		t.Errorf("zero kernel: %v, want ErrZeroKernel", err)
	}
}

// The pivots and the factor are the same on every run, and past the cap
// the factor stops at MaxRank columns.
func TestFactorDeterministicAndCapped(t *testing.T) {
	xs := randomSamples(rand.New(rand.NewSource(5)), 300, 8)
	a, errA := Factorize(xs, RBF{Gamma: 2})
	b, errB := Factorize(xs, RBF{Gamma: 2})
	if errA != nil || errB != nil {
		t.Fatalf("Factorize: %v / %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two runs gave different factors")
	}
	if a.L.Cols != MaxRank {
		t.Errorf("rank %d, want the cap %d", a.L.Cols, MaxRank)
	}
}

// Coefficients inverts the map on the training samples: β·k(pivots, x_i)
// equals w·L_i.
func TestCoefficientsScoreTrainingRows(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	xs := randomSamples(r, 30, 2)
	k := RBF{Gamma: 0.5}
	fac, err := Factorize(xs, k)
	if err != nil {
		t.Fatal(err)
	}
	w := make(mat.Vector, fac.L.Cols)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	beta := fac.Coefficients(w)
	for i, x := range xs {
		var s float64
		for j, p := range fac.Pivots {
			s += beta[j] * k.Eval(xs[p], x)
		}
		if want := w.Dot(fac.L.Row(i)); math.Abs(s-want) > 1e-8*(1+math.Abs(want)) {
			t.Fatalf("sample %d: kernel score %v, map score %v", i, s, want)
		}
	}
}

// The principal axis of the map separates two far-apart clusters: the
// mapped samples' scores along it, centered, take one sign per cluster.
func TestPrincipalAxisSplitsClusters(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var xs []mat.Vector
	for i := 0; i < 40; i++ {
		c := float64(4 * (1 - 2*(i%2)))
		xs = append(xs, mat.Vector{c + r.NormFloat64(), c + r.NormFloat64()})
	}
	fac, err := Factorize(xs, RBF{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	v := fac.PrincipalAxis()
	if math.Abs(v.Norm2()-1) > 1e-12 {
		t.Fatalf("|axis| = %v", v.Norm2())
	}
	scores := fac.L.MulVec(v)
	var mean float64
	for _, s := range scores {
		mean += s / float64(len(scores))
	}
	for i, s := range scores {
		if want := (i%2 == 0) == (scores[0] > mean); (s > mean) != want {
			t.Fatalf("sample %d (cluster %d) scores %v on the wrong side of %v", i, i%2, s, mean)
		}
	}
}
