package har

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"plos/internal/parallel"
	"plos/internal/rng"
	"plos/internal/svm"
)

func smallCfg() Config {
	return Config{Users: 5, PerClass: 30, Dim: 80, Informative: 20}
}

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate(Config{Users: 3, PerClass: 10}, rng.New(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Users) != 3 {
		t.Fatalf("users = %d", len(ds.Users))
	}
	for i, u := range ds.Users {
		if u.X.Rows != 20 || u.X.Cols != 561 {
			t.Fatalf("user %d shape = %dx%d, want 20x561 (paper §VI-C)", i, u.X.Rows, u.X.Cols)
		}
	}
}

func TestGenerateInterleaved(t *testing.T) {
	ds, err := Generate(smallCfg(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, y := range ds.Users[0].Truth {
		want := 1.0
		if i%2 == 1 {
			want = -1
		}
		if y != want {
			t.Fatalf("row %d label = %v", i, y)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(smallCfg(), rng.New(3))
	b, _ := Generate(smallCfg(), rng.New(3))
	if !a.Users[0].X.Equal(b.Users[0].X, 0) {
		t.Error("same seed should generate identical cohorts")
	}
}

// Bias reserves the constant column in place: the cohort is svm.AugmentBias
// of the plain one, bit for bit, from the same draws.
func TestGenerateBiasIsAugmentBias(t *testing.T) {
	plain, _ := Generate(smallCfg(), rng.New(3))
	cfg := smallCfg()
	cfg.Bias = true
	biased, err := Generate(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range biased.Users {
		want := svm.AugmentBias(plain.Users[i].X)
		if u.X.Rows != want.Rows || u.X.Cols != want.Cols || !u.X.Equal(want, 0) {
			t.Fatalf("user %d: Bias cohort is not AugmentBias of the plain one", i)
		}
	}
}

func TestClassesLearnableButTight(t *testing.T) {
	// Sitting vs standing is "the least separable pair": a per-user SVM
	// should do clearly better than chance but stay below ceiling.
	ds, err := Generate(smallCfg(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range ds.Users {
		m, _, err := svm.Train(u.X, u.Truth, svm.Params{C: 1, MaxEpochs: 200})
		if err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
		correct := 0
		for r := 0; r < u.X.Rows; r++ {
			if m.Predict(u.X.Row(r)) == u.Truth[r] {
				correct++
			}
		}
		acc := float64(correct) / float64(u.X.Rows)
		if acc < 0.75 {
			t.Errorf("user %d self accuracy = %v: class signal too weak", i, acc)
		}
	}
}

func TestUserShiftControlsHeterogeneity(t *testing.T) {
	// Larger UserShift must increase the self-vs-cross accuracy gap.
	gap := func(shift float64) float64 {
		cfg := smallCfg()
		cfg.UserShift = shift
		ds, err := Generate(cfg, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		models := make([]*svm.Model, len(ds.Users))
		for i, u := range ds.Users {
			m, _, err := svm.Train(u.X, u.Truth, svm.Params{C: 1, MaxEpochs: 200})
			if err != nil {
				t.Fatal(err)
			}
			models[i] = m
		}
		acc := func(m *svm.Model, u User) float64 {
			correct := 0
			for r := 0; r < u.X.Rows; r++ {
				if m.Predict(u.X.Row(r)) == u.Truth[r] {
					correct++
				}
			}
			return float64(correct) / float64(u.X.Rows)
		}
		var self, cross float64
		var crossN int
		for i := range ds.Users {
			self += acc(models[i], ds.Users[i])
			for j := range ds.Users {
				if i != j {
					cross += acc(models[i], ds.Users[j])
					crossN++
				}
			}
		}
		return self/float64(len(ds.Users)) - cross/float64(crossN)
	}
	small, large := gap(0.1), gap(1.5)
	if large <= small {
		t.Errorf("UserShift should widen the personalization gap: 0.1→%v, 1.5→%v", small, large)
	}
}

func TestInformativeClampedToDim(t *testing.T) {
	cfg := Config{Users: 1, PerClass: 5, Dim: 10, Informative: 50}
	ds, err := Generate(cfg, rng.New(6))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if ds.Users[0].X.Cols != 10 {
		t.Errorf("dim = %d", ds.Users[0].X.Cols)
	}
}

func TestGenerateMulti(t *testing.T) {
	ds, err := GenerateMulti(Config{Users: 3, PerClass: 10, Dim: 60, Informative: 20}, 6, rng.New(8))
	if err != nil {
		t.Fatalf("GenerateMulti: %v", err)
	}
	if ds.Classes != 6 || len(ds.Users) != 3 {
		t.Fatalf("shape: classes=%d users=%d", ds.Classes, len(ds.Users))
	}
	u := ds.Users[0]
	if u.X.Rows != 60 || u.X.Cols != 60 {
		t.Fatalf("user shape = %dx%d", u.X.Rows, u.X.Cols)
	}
	counts := map[int]int{}
	for i, c := range u.Truth {
		if c != i%6 {
			t.Fatalf("classes not cycled at %d", i)
		}
		counts[c]++
	}
	for c := 0; c < 6; c++ {
		if counts[c] != 10 {
			t.Fatalf("class %d count = %d", c, counts[c])
		}
	}
	if _, err := GenerateMulti(Config{}, 1, rng.New(1)); err == nil {
		t.Error("one class should error")
	}
}

func TestGenerateMultiSittingStandingHard(t *testing.T) {
	// The engineered 3-vs-4 pair must be closer than typical random pairs.
	ds, err := GenerateMulti(Config{Users: 1, PerClass: 30, Dim: 80, Informative: 20}, 6, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	u := ds.Users[0]
	centroid := func(cls int) []float64 {
		m := make([]float64, u.X.Cols)
		n := 0
		for i, c := range u.Truth {
			if c == cls {
				row := u.X.Row(i)
				for j := range m {
					m[j] += row[j]
				}
				n++
			}
		}
		for j := range m {
			m[j] /= float64(n)
		}
		return m
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for j := range a {
			d := a[j] - b[j]
			s += d * d
		}
		return s
	}
	c := make([][]float64, 6)
	for i := range c {
		c[i] = centroid(i)
	}
	pairDist := dist(c[3], c[4])
	var others []float64
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if i == 3 && j == 4 {
				continue
			}
			others = append(others, dist(c[i], c[j]))
		}
	}
	closer := 0
	for _, d := range others {
		if pairDist < d {
			closer++
		}
	}
	if closer < len(others)*3/4 {
		t.Errorf("sitting/standing should be among the closest pairs: beat %d of %d", closer, len(others))
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// atProcs runs f with GOMAXPROCS set to n, the generators' fan-out.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// Both generators spread their users over GOMAXPROCS goroutines, and the
// cohort is the same bits at 1, 2 and 8 — the first is the serial loop — for
// one user, for fewer users than goroutines and for more, and when several
// cohorts are generated at once, as a figure's trial pool does.
func TestGenerateSameBitsAnyProcs(t *testing.T) {
	for _, users := range []int{1, 3, 11} {
		cfg := Config{Users: users, PerClass: 3, Dim: 24, Informative: 6, Bias: true}
		gen := func() [][]float64 {
			ds, err := Generate(cfg, rng.New(int64(users)))
			if err != nil {
				t.Error(err)
				return nil
			}
			multi, err := GenerateMulti(cfg, 6, rng.New(int64(users)))
			if err != nil {
				t.Error(err)
				return nil
			}
			var out [][]float64
			for u := range ds.Users {
				classes := make([]float64, len(multi.Users[u].Truth))
				for i, c := range multi.Users[u].Truth {
					classes[i] = float64(c)
				}
				out = append(out, ds.Users[u].X.Data, ds.Users[u].Truth, multi.Users[u].X.Data, classes)
			}
			return out
		}
		check := func(name string, got, want [][]float64) {
			if len(got) != len(want) {
				t.Errorf("users=%d %s: %d slices, serial %d", users, name, len(got), len(want))
				return
			}
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Errorf("users=%d %s: slice %d differs from the serial cohort", users, name, i)
					return
				}
			}
		}
		var want [][]float64
		atProcs(1, func() { want = gen() })
		for _, procs := range []int{2, 8} {
			atProcs(procs, func() { check(fmt.Sprintf("GOMAXPROCS %d", procs), gen(), want) })
		}
		nested := make([][][]float64, 4)
		parallel.Do(4, len(nested), func(i int) { nested[i] = gen() })
		for i, got := range nested {
			check(fmt.Sprintf("nested %d", i), got, want)
		}
	}
}
