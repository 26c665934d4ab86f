package core

import (
	"fmt"
	"testing"

	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/optimize"
	"plos/internal/rng"
)

// cacheTestUsers builds a small heterogeneous cohort (rotated boundaries,
// partial labels) that exercises several cut rounds per CCCP iteration.
func cacheTestUsers(seed int64) []UserData {
	g := rng.New(seed)
	users := make([]UserData, 4)
	for t := range users {
		users[t], _ = synthUser(g, 8, 4, float64(t)*0.35)
	}
	return users
}

func modelsBitIdentical(t *testing.T, a, b *Model, label string) {
	t.Helper()
	if !vecExact(a.W0, b.W0) {
		t.Errorf("%s: W0 differs: %v vs %v", label, a.W0, b.W0)
	}
	if len(a.W) != len(b.W) {
		t.Fatalf("%s: user counts differ", label)
	}
	for u := range a.W {
		if !vecExact(a.W[u], b.W[u]) {
			t.Errorf("%s: W[%d] differs", label, u)
		}
	}
}

func vecExact(a, b mat.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property (satellite of DESIGN.md §11): the incremental Gram cache is an
// optimization, not a semantic change — training with it produces the same
// model, bit for bit, as rebuilding every solve from scratch, across seeds
// and worker counts, for both trainers.
func TestPropertyCacheBitIdenticalCentralized(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				users := cacheTestUsers(seed)
				cfg := Config{Seed: seed, Workers: workers}
				inc, incInfo, err := TrainCentralized(users, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.RebuildGram = true
				reb, rebInfo, err := TrainCentralized(users, cfg)
				if err != nil {
					t.Fatal(err)
				}
				modelsBitIdentical(t, inc, reb, "centralized")
				if incInfo.CutRounds != rebInfo.CutRounds || incInfo.Constraints != rebInfo.Constraints {
					t.Errorf("solver trajectory diverged: %+v vs %+v", incInfo, rebInfo)
				}
			})
		}
	}
}

// The distributed property runs both cut spaces: the 16×2 cohort's workers
// work in the feature space, the 6×40 cohort's in the row space.
func TestPropertyCacheBitIdenticalDistributed(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cohorts := []struct {
			name  string
			users []UserData
		}{
			{"m≥d", cacheTestUsers(seed)},
			{"m<d", fig5Users(t, seed, 4, 3, 40)},
		}
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				for _, c := range cohorts {
					for _, warm := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/warm=%v", c.name, warm), func(t *testing.T) {
							cfg := Config{Seed: seed, Workers: workers, MaxCCCPIter: 4, WarmWorkingSets: warm}
							dcfg := DistConfig{Workers: workers, MaxADMMIter: 40}
							inc, incInfo, err := TrainDistributed(c.users, cfg, dcfg)
							if err != nil {
								t.Fatal(err)
							}
							cfg.RebuildGram = true
							reb, rebInfo, err := TrainDistributed(c.users, cfg, dcfg)
							if err != nil {
								t.Fatal(err)
							}
							modelsBitIdentical(t, inc, reb, "distributed")
							if incInfo.ADMMIterations != rebInfo.ADMMIterations || incInfo.CutRounds != rebInfo.CutRounds {
								t.Errorf("solver trajectory diverged: %+v vs %+v", incInfo, rebInfo)
							}
						})
					}
				}
			})
		}
	}
}

// Satellite 2: warm working sets carry the cache (and the warm-start duals)
// across CCCP rounds. The previous solver silently truncated a shrunken
// warm-start mapping; now the only legal paths are "prefix extends" (no
// counter) or "drop and recount" (counter). A normal warm-sets run never
// shrinks, so the counter must stay zero and the output must stay
// bit-identical to the from-scratch rebuild.
func TestWarmWorkingSetsCacheBitIdentical(t *testing.T) {
	users := cacheTestUsers(5)
	reg := obs.NewRegistry()
	cfg := Config{Seed: 5, WarmWorkingSets: true, Obs: reg}
	inc, _, err := TrainCentralized(users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.CounterValue(obs.MetricWarmStartTruncations); n != 0 {
		t.Errorf("append-only warm run recorded %d truncations, want 0", n)
	}
	cfg.RebuildGram = true
	cfg.Obs = nil
	reb, _, err := TrainCentralized(users, cfg)
	if err != nil {
		t.Fatal(err)
	}
	modelsBitIdentical(t, inc, reb, "warm working sets")
}

// Satellite 2 (regression, centralized): a working set that shrinks or is
// regenerated out-of-band between restricted solves must invalidate the
// cache, drop the stale duals (counting one truncation), and still solve.
func TestWarmStartTruncationCounterCentralized(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Obs: reg}.WithDefaults()
	const tc = 2
	s := &centralState{
		cfg:     cfg,
		dim:     2,
		t:       tc,
		budget:  float64(tc) / (2 * cfg.Lambda),
		scaleW0: cfg.Lambda / float64(tc),
		sets:    make([]optimize.WorkingSet, tc),
		w0:      mat.NewVector(2),
		w:       []mat.Vector{mat.NewVector(2), mat.NewVector(2)},
		flatLen: make([]int, tc),
		gens:    make([]uint64, tc),
		groups:  make([][]int, tc),
		budgets: []float64{1, 1},
	}
	s.sets[0].Add(optimize.Constraint{A: mat.Vector{1, 0}, C: 0.5, Key: "\x01"})
	s.sets[0].Add(optimize.Constraint{A: mat.Vector{0, 1}, C: 0.4, Key: "\x02"})
	s.sets[1].Add(optimize.Constraint{A: mat.Vector{1, 1}, C: 0.3, Key: "\x01"})
	if _, err := s.solveRestrictedQP(); err != nil {
		t.Fatal(err)
	}
	if n := reg.CounterValue(obs.MetricWarmStartTruncations); n != 0 {
		t.Fatalf("first solve recorded %d truncations", n)
	}
	if s.gram.Len() != 3 || len(s.gamma) != 3 {
		t.Fatalf("cache not primed: gram=%d gamma=%d", s.gram.Len(), len(s.gamma))
	}

	// Out-of-band shrink: user 0's set is rebuilt with a single different
	// constraint while live duals exist.
	s.sets[0].Reset()
	s.sets[0].Add(optimize.Constraint{A: mat.Vector{2, 1}, C: 0.6, Key: "\x03"})
	if _, err := s.solveRestrictedQP(); err != nil {
		t.Fatal(err)
	}
	if n := reg.CounterValue(obs.MetricWarmStartTruncations); n != 1 {
		t.Errorf("shrunken set recorded %d truncations, want 1", n)
	}
	if s.gram.Len() != 2 || len(s.gamma) != 2 {
		t.Errorf("cache not rebuilt to the new pool: gram=%d gamma=%d", s.gram.Len(), len(s.gamma))
	}

	// Appending afterwards is incremental again: no further truncations.
	s.sets[1].Add(optimize.Constraint{A: mat.Vector{0.5, 2}, C: 0.7, Key: "\x02"})
	if _, err := s.solveRestrictedQP(); err != nil {
		t.Fatal(err)
	}
	if n := reg.CounterValue(obs.MetricWarmStartTruncations); n != 1 {
		t.Errorf("append-only growth recorded %d truncations, want 1", n)
	}
}

// Satellite 2 (regression, distributed): the device-side local dual detects
// an out-of-band working-set rebuild the same way, in either cut space. In
// both a cut is a 2-vector: A_k ∈ ℝ^d in the feature space, g_k ∈ ℝ^m over
// two orthonormal rows in the row space, so the two Grams are equal.
func TestWarmStartTruncationCounterWorker(t *testing.T) {
	for _, c := range []struct {
		name string
		u    UserData
	}{
		{"feature space (4×2)", UserData{X: mat.FromRows([][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}), Y: []float64{1, -1, 1, -1}}},
		{"row space (2×4)", UserData{X: mat.FromRows([][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}}), Y: []float64{1, -1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			wk, err := NewWorker(c.u, 1, Config{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			if _, row := wk.space.(*rowSpace); row != (c.u.X.Rows < c.u.X.Cols) {
				t.Fatalf("NewWorker chose the wrong space for %d×%d", c.u.X.Rows, c.u.X.Cols)
			}
			base := mat.Vector{0.1, 0.1}
			wk.set.Add(optimize.Constraint{A: mat.Vector{1, 0}, C: 0.5, Key: "\x01"})
			wk.set.Add(optimize.Constraint{A: mat.Vector{0, 1}, C: 0.4, Key: "\x02"})
			if err := wk.solveLocalDual(0.5, base); err != nil {
				t.Fatal(err)
			}
			if len(wk.alpha) != 2 || wk.gram.Len() != 2 {
				t.Fatalf("cache not primed: alpha=%v gram=%d", wk.alpha, wk.gram.Len())
			}
			if n := reg.CounterValue(obs.MetricWarmStartTruncations); n != 0 {
				t.Fatalf("first solve recorded %d truncations", n)
			}

			wk.set.Reset()
			wk.set.Add(optimize.Constraint{A: mat.Vector{1, 1}, C: 0.6, Key: "\x03"})
			if err := wk.solveLocalDual(0.5, base); err != nil {
				t.Fatal(err)
			}
			if n := reg.CounterValue(obs.MetricWarmStartTruncations); n != 1 {
				t.Errorf("rebuilt set recorded %d truncations, want 1", n)
			}
			if wk.gram.Len() != 1 {
				t.Errorf("gram not rebuilt: %d", wk.gram.Len())
			}
			// A_j·A_k/ρ̃ = 2/0.5, from A = (1, 1) or from g = (1, 1).
			if got := wk.gram.Matrix().At(0, 0); got != 4 {
				t.Errorf("rebuilt Gram cell %v, want 4", got)
			}

			// A ρ̃ change invalidates the Gram (its cells embed 1/ρ̃) but keeps the
			// duals — same pool, different scaling — so no truncation is counted.
			if err := wk.solveLocalDual(0.25, base); err != nil {
				t.Fatal(err)
			}
			if n := reg.CounterValue(obs.MetricWarmStartTruncations); n != 1 {
				t.Errorf("rho change recorded %d truncations, want 1", n)
			}
		})
	}
}
