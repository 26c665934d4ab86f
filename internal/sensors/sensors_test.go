package sensors

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"plos/internal/rng"
	"plos/internal/svm"
)

func smallCfg() Config {
	return Config{Subjects: 4, SegmentsPerActivity: 20}
}

func TestGenerateShapes(t *testing.T) {
	ds, err := Generate(smallCfg(), rng.New(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Subjects) != 4 {
		t.Fatalf("subjects = %d", len(ds.Subjects))
	}
	for i, s := range ds.Subjects {
		if s.X.Rows != 40 || s.X.Cols != FeatureDim {
			t.Fatalf("subject %d shape = %dx%d, want 40x%d", i, s.X.Rows, s.X.Cols, FeatureDim)
		}
		if FeatureDim != 120 {
			t.Fatalf("FeatureDim = %d, want the paper's 120", FeatureDim)
		}
		pos, neg := 0, 0
		for _, y := range s.Truth {
			switch y {
			case 1:
				pos++
			case -1:
				neg++
			default:
				t.Fatalf("bad label %v", y)
			}
		}
		if pos != 20 || neg != 20 {
			t.Fatalf("subject %d class counts: +%d/−%d", i, pos, neg)
		}
	}
}

func TestGenerateInterleavesClasses(t *testing.T) {
	ds, err := Generate(smallCfg(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	truth := ds.Subjects[0].Truth
	for i := 0; i+1 < len(truth); i += 2 {
		if truth[i] != 1 || truth[i+1] != -1 {
			t.Fatalf("rows %d,%d not interleaved: %v %v", i, i+1, truth[i], truth[i+1])
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallCfg(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallCfg(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Subjects[0].X.Equal(b.Subjects[0].X, 0) {
		t.Error("same seed should generate identical cohorts")
	}
	c, err := Generate(smallCfg(), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if a.Subjects[0].X.Equal(c.Subjects[0].X, 1e-9) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateRejectsBadRates(t *testing.T) {
	cfg := smallCfg()
	cfg.RawHz = 100
	cfg.TargetHz = 30 // does not divide
	if _, err := Generate(cfg, rng.New(5)); err == nil {
		t.Error("non-divisible rates should error")
	}
}

func TestClassesAreSeparablePerSubject(t *testing.T) {
	// The posture signal must be learnable: a per-subject linear SVM on
	// the extracted features should separate standing from sitting well.
	ds, err := Generate(smallCfg(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ds.Subjects {
		m, _, err := svm.Train(svm.AugmentBias(s.X), s.Truth, svm.Params{C: 1, MaxEpochs: 300})
		if err != nil {
			t.Fatalf("subject %d: %v", i, err)
		}
		correct := 0
		aug := svm.AugmentBias(s.X)
		for r := 0; r < aug.Rows; r++ {
			if m.Predict(aug.Row(r)) == s.Truth[r] {
				correct++
			}
		}
		if acc := float64(correct) / float64(aug.Rows); acc < 0.9 {
			t.Errorf("subject %d self-SVM accuracy = %v", i, acc)
		}
	}
}

func TestSubjectsAreHeterogeneous(t *testing.T) {
	// Free placement must inject personal traits: a model trained on one
	// subject should transfer to another subject *imperfectly* (worse
	// than on itself). This is the property Figs 3–4 exploit.
	cfg := smallCfg()
	cfg.Subjects = 8
	cfg.PlacementStd = 0.8
	cfg.FlipProb = 0.5
	ds, err := Generate(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	selfSum, crossSum, crossCount := 0.0, 0.0, 0
	models := make([]*svm.Model, len(ds.Subjects))
	for i, s := range ds.Subjects {
		m, _, err := svm.Train(svm.AugmentBias(s.X), s.Truth, svm.Params{C: 1, MaxEpochs: 300})
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	acc := func(m *svm.Model, s Subject) float64 {
		aug := svm.AugmentBias(s.X)
		correct := 0
		for r := 0; r < aug.Rows; r++ {
			if m.Predict(aug.Row(r)) == s.Truth[r] {
				correct++
			}
		}
		return float64(correct) / float64(aug.Rows)
	}
	for i := range ds.Subjects {
		selfSum += acc(models[i], ds.Subjects[i])
		for j := range ds.Subjects {
			if i != j {
				crossSum += acc(models[i], ds.Subjects[j])
				crossCount++
			}
		}
	}
	self := selfSum / float64(len(ds.Subjects))
	cross := crossSum / float64(crossCount)
	if cross >= self {
		t.Errorf("cross-subject accuracy (%v) should lag self accuracy (%v)", cross, self)
	}
	if self-cross < 0.02 {
		t.Errorf("heterogeneity too weak: self %v vs cross %v", self, cross)
	}
}

func TestRotate3(t *testing.T) {
	// Rotating x-axis around z by π/2 gives the y-axis.
	v := rotate3([]float64{1, 0, 0}, []float64{0, 0, 1}, math.Pi/2)
	want := []float64{0, 1, 0}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("rotate3 = %v", v)
		}
	}
	// Norm preserved for arbitrary rotation.
	u := rotate3([]float64{1, 2, 3}, []float64{0, 1, 0}, 0.7)
	n := math.Sqrt(u[0]*u[0] + u[1]*u[1] + u[2]*u[2])
	if math.Abs(n-math.Sqrt(14)) > 1e-12 {
		t.Errorf("rotation changed the norm: %v", n)
	}
}

func TestActivityLabel(t *testing.T) {
	if Standing.Label() != 1 || Sitting.Label() != -1 {
		t.Error("label mapping wrong")
	}
}

// Generate spreads its subjects over GOMAXPROCS goroutines: the cohort is
// the same bits at 1, 2 and 8 — the first is the serial loop — for one
// subject, fewer subjects than goroutines, and more; and when every subject
// fails, the error is subject 0's, as the serial loop's is.
func TestGenerateSameBitsAnyProcs(t *testing.T) {
	atProcs := func(n int, f func()) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
		f()
	}
	for _, subjects := range []int{1, 3, 11} {
		cfg := Config{Subjects: subjects, SegmentsPerActivity: 3}
		gen := func() []uint64 {
			ds, err := Generate(cfg, rng.New(int64(subjects)))
			if err != nil {
				t.Fatal(err)
			}
			var bits []uint64
			for _, s := range ds.Subjects {
				for _, x := range append(append([]float64(nil), s.X.Data...), s.Truth...) {
					bits = append(bits, math.Float64bits(x))
				}
			}
			return bits
		}
		var want []uint64
		atProcs(1, func() { want = gen() })
		for _, procs := range []int{2, 8} {
			atProcs(procs, func() {
				if !slices.Equal(gen(), want) {
					t.Errorf("subjects=%d GOMAXPROCS %d: cohort differs from the serial one", subjects, procs)
				}
			})
		}
	}
}

// TestGenerateRejectsShortWindow: a window under two samples at TargetHz is
// refused before any subject is generated, naming both settings: under one
// sample it used to divide by zero, and one sample has no stride. Two
// samples generate.
func TestGenerateRejectsShortWindow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		windowSec float64
		ok        bool
	}{
		{"under one sample", 0.04, false},
		{"one sample", 0.05, false},
		{"two samples", 0.1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Subjects: 3, SegmentsPerActivity: 3, WindowSec: tc.windowSec}
			_, err := Generate(cfg, rng.New(1))
			if tc.ok {
				if err != nil {
					t.Fatalf("Generate: %v", err)
				}
				return
			}
			if err == nil || !strings.HasPrefix(err.Error(), "sensors: Generate: WindowSec ") ||
				!strings.Contains(err.Error(), "TargetHz 20") {
				t.Fatalf("error %v, want the window refused naming WindowSec and TargetHz", err)
			}
		})
	}
}
