package core

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/rng"
)

func asyncTestUsers(seed int64) ([]UserData, [][]float64) {
	g := rng.New(seed)
	var users []UserData
	var truths [][]float64
	for i := 0; i < 4; i++ {
		labeled := 10
		if i >= 2 {
			labeled = 0
		}
		u, truth := synthUser(g.SplitN("u", i), 15, labeled, float64(i)*0.15)
		users = append(users, u)
		truths = append(truths, truth)
	}
	return users, truths
}

func TestAsyncMatchesSyncAccuracy(t *testing.T) {
	users, truths := asyncTestUsers(1)
	cfg := Config{Lambda: 50, Cl: 1, Cu: 0.2, Seed: 1}

	sync, _, err := TrainDistributed(users, cfg, DistConfig{})
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	async, info, err := TrainAsync(users, cfg, AsyncConfig{})
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	if info.ADMMIterations == 0 {
		t.Error("async should report update counts")
	}
	var accSync, accAsync float64
	for i := range users {
		accSync += userAccuracy(sync, i, users[i], truths[i])
		accAsync += userAccuracy(async, i, users[i], truths[i])
	}
	accSync /= float64(len(users))
	accAsync /= float64(len(users))
	if math.Abs(accSync-accAsync) > 0.1 {
		t.Errorf("sync acc %v vs async acc %v", accSync, accAsync)
	}
	if accAsync < 0.8 {
		t.Errorf("async accuracy = %v", accAsync)
	}
}

func TestAsyncToleratesStraggler(t *testing.T) {
	users, truths := asyncTestUsers(2)
	cfg := Config{Lambda: 50, Cl: 1, Cu: 0.2, Seed: 2}
	// User 3 is pathologically slow: every solve stalls. The partial
	// barrier must let the rest make progress anyway.
	slow := func(user, _ int) time.Duration {
		if user == 3 {
			return 30 * time.Millisecond
		}
		return 0
	}
	start := time.Now()
	m, _, err := TrainAsync(users, cfg, AsyncConfig{Barrier: 2, Delay: slow,
		MaxUpdatesPerRound: 200})
	if err != nil {
		t.Fatalf("TrainAsync: %v", err)
	}
	elapsed := time.Since(start)
	var acc float64
	for i := 0; i < 3; i++ { // the responsive users
		acc += userAccuracy(m, i, users[i], truths[i])
	}
	acc /= 3
	if acc < 0.8 {
		t.Errorf("responsive users' accuracy = %v", acc)
	}
	// Sanity bound: with a synchronous barrier every one of the hundreds
	// of rounds would pay the 30ms straggler latency; the async run must
	// come in far below that.
	if elapsed > 20*time.Second {
		t.Errorf("async run took %v — partial barrier not effective?", elapsed)
	}
}

func TestAsyncBarrierEqualsTIsSyncLike(t *testing.T) {
	users, truths := asyncTestUsers(3)
	cfg := Config{Lambda: 50, Seed: 3}
	m, _, err := TrainAsync(users, cfg, AsyncConfig{Barrier: len(users)})
	if err != nil {
		t.Fatalf("TrainAsync: %v", err)
	}
	var acc float64
	for i := range users {
		acc += userAccuracy(m, i, users[i], truths[i])
	}
	if acc/float64(len(users)) < 0.8 {
		t.Errorf("accuracy = %v", acc/float64(len(users)))
	}
}

// TestAsyncSweepSolvesSplit pins the metric split between barrier-folded
// solves and the final synchronous sweep that closes each CCCP round:
// async_updates_total (and TrainInfo.ADMMIterations) count only solutions
// folded into the consensus, while the sweep's bookkeeping re-solves land
// in async_sweep_solves_total / TrainInfo.AsyncSweepSolves.
func TestAsyncSweepSolvesSplit(t *testing.T) {
	users, _ := asyncTestUsers(5)
	reg := obs.NewRegistry()
	cfg := Config{Lambda: 50, Cl: 1, Cu: 0.2, Seed: 5, Obs: reg}
	_, info, err := TrainAsync(users, cfg, AsyncConfig{})
	if err != nil {
		t.Fatalf("TrainAsync: %v", err)
	}
	if info.ADMMIterations == 0 || info.AsyncSweepSolves == 0 {
		t.Fatalf("expected both counts populated: folded %d, sweep %d",
			info.ADMMIterations, info.AsyncSweepSolves)
	}
	// One sweep per CCCP round, re-solving every device.
	if want := info.CCCPIterations * len(users); info.AsyncSweepSolves != want {
		t.Errorf("AsyncSweepSolves = %d, want CCCP rounds × users = %d",
			info.AsyncSweepSolves, want)
	}
	if got := reg.CounterValue(obs.MetricAsyncUpdates); got != int64(info.ADMMIterations) {
		t.Errorf("async_updates_total = %d, want folded count %d", got, info.ADMMIterations)
	}
	if got := reg.CounterValue(obs.MetricAsyncSweepSolves); got != int64(info.AsyncSweepSolves) {
		t.Errorf("async_sweep_solves_total = %d, want sweep count %d", got, info.AsyncSweepSolves)
	}
}

// TestAsyncSolveErrorStopsWorkers covers the asyncRound device-error path:
// a mid-round solve failure must surface the failing user's index in a
// wrapped error and tear down every worker goroutine (run under -race to
// catch leaks touching the shared state after return).
func TestAsyncSolveErrorStopsWorkers(t *testing.T) {
	users, _ := asyncTestUsers(6)
	cfg := Config{Lambda: 50, Cl: 1, Cu: 0.2, Seed: 6}.WithDefaults()
	tCount := len(users)
	workers := make([]*Worker, tCount)
	w0 := mat.NewVector(2)
	for i, u := range users {
		wk, err := NewWorker(u, tCount, cfg)
		if err != nil {
			t.Fatalf("NewWorker %d: %v", i, err)
		}
		wk.SetUser(i)
		// User 2 never gets RefreshSigns, so its first Solve fails — the
		// deterministic stand-in for any mid-round device error.
		if i != 2 {
			wk.RefreshSigns(w0)
		}
		workers[i] = wk
	}
	before := runtime.NumGoroutine()
	_, _, _, _, _, err := asyncRound(workers, w0, cfg, AsyncConfig{}.WithDefaults(tCount), 2)
	if err == nil {
		t.Fatal("asyncRound should fail when a device's solve errors")
	}
	if !strings.Contains(err.Error(), "user 2") {
		t.Errorf("error should name the failing user: %v", err)
	}
	if errors.Unwrap(err) == nil {
		t.Errorf("device error should be wrapped, got %v", err)
	}
	// asyncRound returns only after wg.Wait(), so the worker goroutines
	// must already be gone; poll briefly to absorb unrelated runtime
	// goroutines winding down.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked by failed asyncRound: before %d, after %d", before, n)
	}
}

func TestAsyncValidation(t *testing.T) {
	if _, _, err := TrainAsync(nil, Config{}, AsyncConfig{}); err == nil {
		t.Error("no users should error")
	}
}

func TestAsyncConfigDefaults(t *testing.T) {
	a := AsyncConfig{}.WithDefaults(8)
	if a.Barrier != 2 || a.Rho != 1 || a.EpsAbs != 1e-3 {
		t.Errorf("defaults: %+v", a)
	}
	// The doc comment on MaxUpdatesPerRound promises 60·T; keep the code
	// and the comment pinned together.
	if a.MaxUpdatesPerRound != 60*8 {
		t.Errorf("MaxUpdatesPerRound default = %d, want 60·T = %d", a.MaxUpdatesPerRound, 60*8)
	}
	small := AsyncConfig{}.WithDefaults(2)
	if small.Barrier != 1 {
		t.Errorf("small-T barrier = %d", small.Barrier)
	}
	clamped := AsyncConfig{Barrier: 10}.WithDefaults(3)
	if clamped.Barrier != 3 {
		t.Errorf("barrier should clamp to T, got %d", clamped.Barrier)
	}
}
