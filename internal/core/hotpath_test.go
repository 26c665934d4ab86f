package core

import (
	"fmt"
	"testing"

	"plos/internal/har"
	"plos/internal/mat"
	"plos/internal/race"
	"plos/internal/rng"
)

// shapeUser is one simulated HAR user with m rows (m even) of d features,
// the last a constant bias, and the first half of the rows labeled.
func shapeUser(tb testing.TB, m, d int, seed int64) UserData {
	tb.Helper()
	ds, err := har.Generate(har.Config{Users: 1, PerClass: m / 2, Dim: d - 1, Bias: true}, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	u := ds.Users[0]
	return UserData{X: u.X, Y: append([]float64(nil), u.Truth[:m/2]...)}
}

// workerShapes are the two cut spaces the Worker pins run in: the 2-D
// synthetic user (80×2, feature space) and a HAR user (12×121, row space).
var workerShapes = []struct {
	name string
	data func(tb testing.TB) UserData
}{
	{"m≥d", func(testing.TB) UserData { u, _ := synthUser(rng.New(16), 40, 10, 0.3); return u }},
	{"m<d", func(tb testing.TB) UserData { return shapeUser(tb, 12, 121, 16) }},
}

// steadyWorker returns a worker whose working set has saturated against a
// fixed consensus: further Solve calls run their cut round, find nothing new
// to add, and stop — the steady state of a long ADMM run.
func steadyWorker(tb testing.TB, data UserData) (wk *Worker, w0, u mat.Vector) {
	tb.Helper()
	wk, err := NewWorker(data, 4, Config{Seed: 16, MaxCutIter: 5, QPMaxIter: 100, Epsilon: 1e-9})
	if err != nil {
		tb.Fatal(err)
	}
	w0, _ = LocalInit(data, Config{Seed: 16})
	u = mat.NewVector(len(w0))
	wk.RefreshSigns(w0)
	for i := 0; ; i++ {
		before := wk.set.Len()
		if _, _, _, err := wk.Solve(w0, u, 1); err != nil {
			tb.Fatal(err)
		}
		if wk.set.Len() == before {
			return wk, w0, u
		}
		if i > 200 {
			tb.Fatal("working set never saturated")
		}
	}
}

// TestWorkerSolveSteadyStateAllocs pins the floor DESIGN.md §11 documents: a
// solve that adds no cut allocates nothing — no dual, no candidate
// constraint, no Gram, no error value, and no result vectors: w and v are
// lent from the worker's own buffers. It holds in both cut spaces.
func TestWorkerSolveSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, shape := range workerShapes {
		t.Run(shape.name, func(t *testing.T) {
			wk, w0, u := steadyWorker(t, shape.data(t))
			a := steadyAllocs(t, wk.set.Len, func() { _, _, _, _ = wk.Solve(w0, u, 1) })
			if a != 0 {
				t.Errorf("steady-state Worker.Solve allocates %v times, want 0", a)
			}
		})
	}
}

// steadyAllocs measures f over a window in which size() did not move: the
// warm-started dual keeps drifting, so a saturated working set still takes
// the odd new cut, and a window that caught one is not the steady state.
func steadyAllocs(t *testing.T, size func() int, f func()) float64 {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		before := size()
		if a := testing.AllocsPerRun(20, f); size() == before {
			return a
		}
	}
	t.Fatal("no window of 21 calls without a new cut")
	return 0
}

// cloningSolve is Worker.Solve as it was before it lent its buffers: the same
// call, with the two results cloned for the caller.
func cloningSolve(wk *Worker, w0, u mat.Vector, rho float64) (mat.Vector, mat.Vector, float64, error) {
	w, v, xi, err := wk.Solve(w0, u, rho)
	if err != nil {
		return nil, nil, 0, err
	}
	return w.Clone(), v.Clone(), xi, nil
}

// TestWorkerSolveLendsUntilNextSolve: the returned w and v are the worker's
// own buffers — bitwise what a twin worker's cloning Solve returns, and
// rewritten by the next Solve — and Hyperplane is the copy for whoever keeps
// the model. It holds in both cut spaces.
func TestWorkerSolveLendsUntilNextSolve(t *testing.T) {
	for _, shape := range workerShapes {
		t.Run(shape.name, func(t *testing.T) {
			data := shape.data(t)
			wk, w0, u := steadyWorker(t, data)
			twin, _, _ := steadyWorker(t, data)
			u2 := u.Clone()
			for i := range u2 {
				u2[i] = 0.25
			}

			w1, v1, xi1, err := wk.Solve(w0, u, 1)
			if err != nil {
				t.Fatal(err)
			}
			refW1, refV1, refXi1, err := cloningSolve(twin, w0, u, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !vecExact(w1, refW1) || !vecExact(v1, refV1) || xi1 != refXi1 {
				t.Fatal("lent results differ from the cloned ones")
			}
			hp := wk.Hyperplane()

			w2, v2, _, err := wk.Solve(w0, u2, 1)
			if err != nil {
				t.Fatal(err)
			}
			refW2, refV2, _, err := cloningSolve(twin, w0, u2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if vecExact(refW1, refW2) || vecExact(refV1, refV2) {
				t.Fatal("the second solve should move the iterate")
			}
			if !vecExact(w2, refW2) || !vecExact(v2, refV2) {
				t.Error("second lent results differ from the cloned ones")
			}
			if &w1[0] != &w2[0] || &v1[0] != &v2[0] {
				t.Error("Solve should lend the same two buffers every time")
			}
			if !vecExact(w1, refW2) {
				t.Error("the first loan should read the second solve's w now")
			}
			if !vecExact(hp, refW1) {
				t.Error("Hyperplane's copy changed under a later Solve")
			}
		})
	}
}

// TestCentralCutRoundSteadyStateAllocs pins one centralized cut round that
// adds no constraint, sequential pool: the restricted QP, the hyperplane
// recovery and every user's search run on state-owned buffers; what is left
// is the closure the round hands the worker pool.
func TestCentralCutRoundSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	users := cacheTestUsers(16)
	dim, err := validateUsers(users)
	if err != nil {
		t.Fatal(err)
	}
	s := newCentralState(users, Config{Seed: 16, Workers: 1, Epsilon: 1e-9}.WithDefaults(), dim)
	s.refreshSigns()
	for round := 0; ; round++ {
		added, _, err := s.cutRound(round)
		if err != nil {
			t.Fatal(err)
		}
		if added == 0 {
			break
		}
		if round > 500 {
			t.Fatal("working sets never saturated")
		}
	}
	const floor = 1 // the parallel.For body closure
	if a := steadyAllocs(t, s.totalConstraints, func() { _, _, _ = s.cutRound(0) }); a > floor {
		t.Errorf("steady-state cut round allocates %v times, want <= %d", a, floor)
	}
}

// BenchmarkWorkerSolve times a saturated worker's solve across data shapes
// (m×d): m < d runs in the row space, m ≥ d in the feature space.
func BenchmarkWorkerSolve(b *testing.B) {
	for _, shape := range [][2]int{{4, 32}, {12, 562}, {100, 562}, {300, 562}, {562, 562}, {100, 3}, {400, 3}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			wk, w0, u := steadyWorker(b, shapeUser(b, shape[0], shape[1], 16))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := wk.Solve(w0, u, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
