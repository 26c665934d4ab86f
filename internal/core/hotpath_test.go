package core

import (
	"testing"

	"plos/internal/mat"
	"plos/internal/race"
	"plos/internal/rng"
)

// steadyWorker returns a worker whose working set has saturated against a
// fixed consensus: further Solve calls run their cut round, find nothing new
// to add, and stop — the steady state of a long ADMM run.
func steadyWorker(tb testing.TB) (wk *Worker, w0, u mat.Vector) {
	tb.Helper()
	data, _ := synthUser(rng.New(16), 40, 10, 0.3)
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
// lent from the worker's own buffers.
func TestWorkerSolveSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	wk, w0, u := steadyWorker(t)
	a := steadyAllocs(t, wk.set.Len, func() { _, _, _, _ = wk.Solve(w0, u, 1) })
	if a != 0 {
		t.Errorf("steady-state Worker.Solve allocates %v times, want 0", a)
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
// the model.
func TestWorkerSolveLendsUntilNextSolve(t *testing.T) {
	wk, w0, u := steadyWorker(t)
	twin, _, _ := steadyWorker(t)
	u2 := u.Clone()
	u2.Fill(0.25)

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

func BenchmarkWorkerSolve(b *testing.B) {
	wk, w0, u := steadyWorker(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := wk.Solve(w0, u, 1); err != nil {
			b.Fatal(err)
		}
	}
}
