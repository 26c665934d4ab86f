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
// solve that adds no cut allocates the two vectors it returns and nothing
// else — no dual, no candidate constraint, no Gram, no error value.
func TestWorkerSolveSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	wk, w0, u := steadyWorker(t)
	a := steadyAllocs(t, wk.set.Len, func() { _, _, _, _ = wk.Solve(w0, u, 1) })
	if a != 2 {
		t.Errorf("steady-state Worker.Solve allocates %v times, want 2 (the returned w and v)", a)
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

// The returned vectors are the caller's: a later Solve rewrites the worker's
// buffers, and callers over transport.Pipe still hold the earlier pair.
func TestWorkerSolveResultsDoNotAliasScratch(t *testing.T) {
	wk, w0, u := steadyWorker(t)
	w1, v1, _, err := wk.Solve(w0, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	keepW, keepV := w1.Clone(), v1.Clone()
	u2 := u.Clone()
	u2.Fill(0.25)
	w2, v2, _, err := wk.Solve(w0, u2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vecExact(w1, w2) || vecExact(v1, v2) {
		t.Fatal("the second solve should move the iterate")
	}
	if !vecExact(w1, keepW) || !vecExact(v1, keepV) {
		t.Error("an earlier Solve's result changed under a later Solve")
	}
	w2[0]++ // nor does the caller's copy reach back into the worker
	if hp := wk.Hyperplane(); hp[0] == w2[0] {
		t.Error("returned w aliases the worker's hyperplane")
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
