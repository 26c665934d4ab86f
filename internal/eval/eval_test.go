package eval

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"plos/internal/core"
	"plos/internal/dataset"
	"plos/internal/mat"
	"plos/internal/rng"
	"plos/internal/svm"
)

func synthBases(t *testing.T, users, perClass int, maxAngle float64, seed int64) []Base {
	t.Helper()
	pop, err := dataset.Population(users, maxAngle, dataset.SynthConfig{PerClass: perClass}, rng.New(seed))
	if err != nil {
		t.Fatalf("Population: %v", err)
	}
	bases := make([]Base, len(pop))
	for i, u := range pop {
		bases[i] = Base{X: svm.AugmentBias(u.X), Truth: u.Truth}
	}
	return bases
}

func TestAssembleBasics(t *testing.T) {
	bases := synthBases(t, 4, 20, 0, 1)
	users, truths, err := Assemble(bases, []int{0, 2}, 0.1, rng.New(2), 0)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(users) != 4 || len(truths) != 4 {
		t.Fatalf("lengths: %d users, %d truths", len(users), len(truths))
	}
	// Providers 0 and 2 get ~10% of 40 = 4 labels; users 1 and 3 get none.
	for _, p := range []int{0, 2} {
		if got := users[p].NumLabeled(); got != 4 {
			t.Errorf("provider %d labels = %d, want 4", p, got)
		}
		// Stratified: both classes present in the labeled prefix.
		var pos, neg int
		for _, y := range users[p].Y {
			if y > 0 {
				pos++
			} else {
				neg++
			}
		}
		if pos == 0 || neg == 0 {
			t.Errorf("provider %d labels single-class: +%d/−%d", p, pos, neg)
		}
	}
	for _, np := range []int{1, 3} {
		if users[np].NumLabeled() != 0 {
			t.Errorf("non-provider %d has labels", np)
		}
	}
	// The labels must match the reordered truth prefix.
	for _, p := range []int{0, 2} {
		for i, y := range users[p].Y {
			if y != truths[p][i] {
				t.Fatalf("provider %d label %d mismatches truth", p, i)
			}
		}
	}
}

func TestAssembleRowPermutationPreservesPairs(t *testing.T) {
	// Each reordered (row, truth) pair must exist in the original base.
	bases := synthBases(t, 1, 10, 0, 3)
	users, truths, err := Assemble(bases, []int{0}, 0.2, rng.New(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := bases[0]
	for i := 0; i < users[0].X.Rows; i++ {
		row := users[0].X.Row(i)
		found := false
		for j := 0; j < orig.X.Rows; j++ {
			if row.Equal(orig.X.Row(j), 0) && truths[0][i] == orig.Truth[j] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("reordered row %d not found in the original data", i)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	bases := synthBases(t, 2, 5, 0, 5)
	if _, _, err := Assemble(bases, []int{7}, 0.1, rng.New(1), 0); err == nil {
		t.Error("out-of-range provider should error")
	}
	bad := []Base{{X: mat.NewMatrix(3, 2), Truth: []float64{1}}}
	if _, _, err := Assemble(bad, nil, 0.1, rng.New(1), 0); err == nil {
		t.Error("inconsistent base should error")
	}
}

func TestAccuracy(t *testing.T) {
	truth := []float64{1, 1, -1, -1}
	if got := Accuracy([]float64{1, 1, -1, 1}, truth, false); got != 0.75 {
		t.Errorf("Accuracy = %v", got)
	}
	// Fully inverted clustering scores 1.0 under matching.
	if got := Accuracy([]float64{-1, -1, 1, 1}, truth, true); got != 1 {
		t.Errorf("matched Accuracy = %v", got)
	}
	if got := Accuracy([]float64{-1, -1, 1, 1}, truth, false); got != 0 {
		t.Errorf("unmatched Accuracy = %v", got)
	}
	if got := Accuracy(nil, truth, false); got != 0 {
		t.Errorf("empty predictions = %v", got)
	}
}

// Property: matched accuracy is always >= 0.5 for binary predictions.
func TestPropertyMatchedAccuracyAtLeastHalf(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		g := rng.New(seed)
		pred := make([]float64, n)
		truth := make([]float64, n)
		for i := range pred {
			pred[i] = float64(g.Intn(2))*2 - 1
			truth[i] = float64(g.Intn(2))*2 - 1
		}
		return Accuracy(pred, truth, true) >= 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRunMethodsOrdering(t *testing.T) {
	// Paper-scale label counts (~8 labels per provider, as in Fig 9/10):
	// at 3 labels CCCP is known to be init-unstable — the paper reports a
	// 7.37% std at one provider — so this test pins the regime the
	// figures actually run in.
	bases := synthBases(t, 4, 20, math.Pi/4, 6)
	providers := []int{0, 1}
	users, truths, err := Assemble(bases, providers, 0.2, rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := RunMethods(users, truths, providers, MethodsConfig{
		Core: core.Config{Lambda: 50, Seed: 6},
	}, rng.New(8))
	if err != nil {
		t.Fatalf("RunMethods: %v", err)
	}
	for _, name := range Methods {
		a, ok := accs[name]
		if !ok {
			t.Fatalf("missing method %s", name)
		}
		if a.Labeled < 0.5 || a.Unlabeled < 0.45 {
			t.Errorf("%s accuracies suspiciously low: %+v", name, a)
		}
	}
	// PLOS should be at least competitive with every baseline on this
	// personalized workload (the paper's headline claim). The ceiling is
	// ~0.886 against the 10%-flipped truth.
	if accs[MethodPLOS].Unlabeled < 0.7 {
		t.Errorf("PLOS unlabeled accuracy = %v", accs[MethodPLOS].Unlabeled)
	}
	for _, base := range []string{MethodAll, MethodSingle} {
		if accs[MethodPLOS].Unlabeled+0.05 < accs[base].Unlabeled {
			t.Errorf("PLOS (%v) clearly below %s (%v) on unlabeled users",
				accs[MethodPLOS].Unlabeled, base, accs[base].Unlabeled)
		}
	}
}

func TestRunMethodsSkip(t *testing.T) {
	bases := synthBases(t, 3, 10, 0, 9)
	providers := []int{0}
	users, truths, err := Assemble(bases, providers, 0.1, rng.New(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := RunMethods(users, truths, providers, MethodsConfig{
		Core: core.Config{Seed: 9},
		Skip: []string{MethodGroup, MethodSingle, MethodAll},
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 1 {
		t.Errorf("accs = %v, want PLOS only", accs)
	}
}

func TestFigureFormat(t *testing.T) {
	f := Figure{ID: "figX", Title: "demo", XLabel: "x",
		X:      []float64{1, 2},
		Curves: []Curve{{Name: "m", Y: []float64{0.5, 0.75}}}}
	s := f.Format()
	for _, want := range []string{"figX", "demo", "m", "0.7500"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format missing %q:\n%s", want, s)
		}
	}
	// A short curve renders placeholders rather than panicking.
	f.Curves = append(f.Curves, Curve{Name: "short", Y: []float64{0.1}})
	if !strings.Contains(f.Format(), "-") {
		t.Error("short curve should render '-'")
	}
}

func TestCrossValidateLambda(t *testing.T) {
	bases := synthBases(t, 5, 15, math.Pi/3, 12)
	providers := []int{0, 1, 2}
	grid := []float64{1, 100}
	best, scores, err := crossValidateLambda(bases, providers, 0.1, grid,
		core.Config{Seed: 12}, rng.New(13))
	if err != nil {
		t.Fatalf("crossValidateLambda: %v", err)
	}
	if len(scores) != 2 {
		t.Fatalf("scores = %v", scores)
	}
	found := false
	for _, l := range grid {
		if best == l {
			found = true
		}
	}
	if !found {
		t.Errorf("best λ %v not from grid", best)
	}
	for i, s := range scores {
		if s < 0.4 || s > 1 {
			t.Errorf("score[%d] = %v out of range", i, s)
		}
	}
}

func TestCrossValidateLambdaErrors(t *testing.T) {
	bases := synthBases(t, 3, 5, 0, 14)
	if _, _, err := crossValidateLambda(bases, []int{0, 1}, 0.1, nil,
		core.Config{}, rng.New(1)); err == nil {
		t.Error("empty grid should error")
	}
	if _, _, err := crossValidateLambda(bases, []int{0}, 0.1, []float64{1},
		core.Config{}, rng.New(1)); err == nil {
		t.Error("single provider should error")
	}
}

func TestCrossValidateConfigs(t *testing.T) {
	bases := synthBases(t, 4, 15, math.Pi/4, 15)
	providers := []int{0, 1, 2}
	candidates := []core.Config{
		{Lambda: 1, Cl: 1, Cu: 0.2, Seed: 15},
		{Lambda: 100, Cl: 2, Cu: 0.1, Seed: 15},
	}
	best, scores, err := CrossValidateConfigs(bases, providers, 0.2, candidates, rng.New(16))
	if err != nil {
		t.Fatalf("CrossValidateConfigs: %v", err)
	}
	if best < 0 || best >= len(candidates) {
		t.Fatalf("best = %d", best)
	}
	if len(scores) != 2 {
		t.Fatalf("scores = %v", scores)
	}
	if scores[best] < scores[1-best] {
		t.Error("selected candidate must have the top score")
	}
	if _, _, err := CrossValidateConfigs(bases, providers, 0.2, nil, rng.New(1)); err == nil {
		t.Error("empty candidates should error")
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{ID: "figX", XLabel: "x",
		X: []float64{1, 2},
		Curves: []Curve{
			{Name: "a", Y: []float64{0.5, math.NaN()}},
			{Name: "b", Y: []float64{0.25}},
		}}
	got := f.CSV()
	want := "x,a,b\n1,0.5,0.25\n2,,\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// rngNew lets figure tests construct streams without importing rng twice.
func rngNew(seed int64) *rng.RNG { return rng.New(seed) }

// Assemble spreads its users over the workers it is given, and the users
// and truths are the same bits at 1, 2 and 8 workers and at GOMAXPROCS 1 —
// the first is the serial loop — for cohorts of 0 and 1 users, fewer users
// than workers, and more; a user who provides no labels still shares its
// base's matrix.
func TestAssembleSameBitsAnyWorkers(t *testing.T) {
	all := synthBases(t, 11, 6, 0.5, 1)
	for _, n := range []int{0, 1, 3, 11} {
		bases := all[:n]
		providers := randomProviders(n/2+n%2, n, rng.New(3))
		assemble := func(workers int) []uint64 {
			users, truths, err := Assemble(bases, providers, 0.3, rng.New(5), workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(users) != n || len(truths) != n {
				t.Fatalf("n=%d workers=%d: %d users, %d truths", n, workers, len(users), len(truths))
			}
			var bits []uint64
			for u := range users {
				if len(users[u].Y) == 0 && users[u].X != bases[u].X {
					t.Errorf("n=%d workers=%d: user %d provides no labels but copies its base", n, workers, u)
				}
				for _, v := range [][]float64{users[u].X.Data, users[u].Y, truths[u]} {
					bits = append(bits, uint64(len(v)))
					for _, x := range v {
						bits = append(bits, math.Float64bits(x))
					}
				}
			}
			return bits
		}
		want := assemble(1)
		var serial []uint64
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			serial = assemble(0)
		}()
		for name, got := range map[string][]uint64{"GOMAXPROCS 1": serial,
			"2 workers": assemble(2), "8 workers": assemble(8)} {
			if !slices.Equal(got, want) {
				t.Errorf("n=%d, %s: users differ from one worker's", n, name)
			}
		}
	}
}

// crossValidateLambda is CrossValidateConfigs over a λ grid: it returns the
// selected λ from grid and the per-candidate scores.
func crossValidateLambda(bases []Base, providers []int, rate float64,
	grid []float64, cfg core.Config, g *rng.RNG) (float64, []float64, error) {
	if len(grid) == 0 {
		return 0, nil, errors.New("eval: crossValidateLambda: empty grid")
	}
	candidates := make([]core.Config, len(grid))
	for i, l := range grid {
		c := cfg
		c.Lambda = l
		candidates[i] = c
	}
	best, scores, err := CrossValidateConfigs(bases, providers, rate, candidates, g)
	if err != nil {
		return 0, nil, err
	}
	return grid[best], scores, nil
}
