package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"plos/internal/admm"
	"plos/internal/mat"
	"plos/internal/obs"
)

// AsyncConfig tunes the asynchronous distributed trainer — the paper's
// §VII future-work scenario where "some users may delay their responses
// for arbitrarily long". Instead of the synchronous ADMM barrier (every
// round waits for all T devices), the server refreshes the consensus as
// soon as a partial barrier of updates has arrived, using each device's
// most recent solution.
type AsyncConfig struct {
	// Barrier is the number of *distinct* devices with fresh solutions
	// that triggers a consensus refresh (default max(1, T/4)); between
	// barriers a fast device's re-solves replace, not stack, its pending
	// contribution. Barrier = T reproduces the synchronous schedule.
	Barrier int
	// MaxUpdatesPerRound bounds the folded device solves per CCCP round
	// (default 60·T), the async analogue of MaxADMMIter.
	MaxUpdatesPerRound int
	// Rho is the ADMM penalty (default 1).
	Rho float64
	// EpsAbs is the absolute residual tolerance, applied like the
	// synchronous stopping rule of Eq. (24): a CCCP round ends when the
	// primal residual sqrt(Σ_t ||x_t − z||²) falls below √T·ε_abs and the
	// consensus movement ρ·||Δz|| below ε_abs (default 1e-3).
	EpsAbs float64
	// Delay optionally injects per-device latency before each local
	// solve — the test hook for straggler scenarios. Called with the user
	// index and the device's solve count.
	Delay func(user, solves int) time.Duration
}

// WithDefaults fills the zero fields with the documented defaults for a
// t-device fleet. Exported because the asynchronous wire protocol
// (internal/protocol) shares the same budget and tolerance defaults.
func (a AsyncConfig) WithDefaults(t int) AsyncConfig {
	if a.Barrier <= 0 {
		a.Barrier = t / 4
		if a.Barrier < 1 {
			a.Barrier = 1
		}
	}
	if a.Barrier > t {
		a.Barrier = t
	}
	if a.MaxUpdatesPerRound <= 0 {
		a.MaxUpdatesPerRound = 60 * t
	}
	if a.Rho <= 0 {
		a.Rho = 1
	}
	if a.EpsAbs <= 0 {
		a.EpsAbs = 1e-3
	}
	return a
}

// TrainAsync runs distributed PLOS with asynchronous consensus updates:
// devices solve continuously against the freshest (z, u_t) they can see,
// and the server folds updates in at a partial barrier without waiting for
// stragglers. Accuracy matches the synchronous trainer to within solver
// tolerance while wall-clock no longer depends on the slowest device.
func TrainAsync(users []UserData, cfg Config, acfg AsyncConfig) (*Model, TrainInfo, error) {
	cfg = cfg.WithDefaults()
	tCount := len(users)
	acfg = acfg.WithDefaults(tCount)
	workers, w0, err := newFleet("TrainAsync", users, cfg)
	if err != nil {
		return nil, TrainInfo{}, err
	}
	dim := len(w0)

	info := TrainInfo{}
	err = BeginRun(cfg.Obs, "async", tCount).CCCP(cfg, nil, nil, &info, func(int) (float64, int, error) {
		flips := 0
		for _, wk := range workers {
			flips += wk.RefreshSigns(w0)
		}
		z, obj, updates, sweep, res, err := asyncRound(workers, w0, cfg, acfg, dim)
		info.ADMMIterations += updates
		info.AsyncSweepSolves += sweep
		info.ADMMPrimal = res.Primal
		info.ADMMDual = res.Dual
		if err != nil {
			return 0, 0, err
		}
		w0 = z
		return obj, flips, nil
	})
	if err != nil {
		return nil, info, fmt.Errorf("core: TrainAsync: %w", err)
	}

	return fleetModel(workers, w0, cfg, &info), info, nil
}

// asyncState is the server's shared view, guarded by one mutex: device
// goroutines snapshot (z, u_t) under it and deliver results through a
// channel, so the consensus algebra itself stays single-threaded. The
// algebra lives in admm.AsyncFold, shared with the asynchronous wire
// protocol (internal/protocol).
type asyncState struct {
	mu   sync.Mutex
	fold *admm.AsyncFold
}

type asyncUpdate struct {
	user int
	x    mat.Vector
	err  error
}

// asyncRound runs one CCCP round of asynchronous ADMM and returns the
// final consensus, the objective L of Eq. (23), the folded update count,
// the final-sweep solve count, and the residuals of the last barrier fold
// (the async analogue of Eq. 24).
func asyncRound(workers []*Worker, w0 mat.Vector, cfg Config, acfg AsyncConfig, dim int) (mat.Vector, float64, int, int, admm.Residuals, error) {
	tCount := len(workers)
	fold, err := admm.NewAsyncFold(w0, tCount, acfg.Rho, nil)
	if err != nil {
		return nil, 0, 0, 0, admm.Residuals{}, err
	}
	st := &asyncState{fold: fold}

	updatesCh := make(chan asyncUpdate)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for t := range workers {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			solves := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if acfg.Delay != nil {
					if d := acfg.Delay(t, solves); d > 0 {
						select {
						case <-stop:
							return
						case <-time.After(d):
						}
					}
				}
				st.mu.Lock()
				z := st.fold.Z.Clone()
				u := st.fold.Us[t].Clone()
				st.mu.Unlock()
				w, v, _, err := workers[t].Solve(z, u, acfg.Rho)
				solves++
				up := asyncUpdate{user: t, err: err}
				if err == nil {
					// A fresh vector: it waits for the barrier while this
					// worker solves again.
					up.x = mat.SubVec(w, v)
				}
				select {
				case <-stop:
					return
				case updatesCh <- up:
				}
			}
		}(t)
	}

	totalUpdates := 0
	everyoneReported := false
	fresh := make(map[int]asyncUpdate, tCount)
	entries := make([]admm.FoldEntry, 0, tCount)
	var loopErr error
	var lastDual float64
	barrier := 0
	barrierStart := time.Now()
	asyncUpdates := cfg.Obs.Counter(obs.MetricAsyncUpdates, "")
	for totalUpdates < acfg.MaxUpdatesPerRound {
		up := <-updatesCh
		if up.err != nil {
			loopErr = fmt.Errorf("core: TrainAsync: user %d: %w", up.user, up.err)
			break
		}
		totalUpdates++
		asyncUpdates.Inc()
		// Keep only the newest solution per device between barriers: a
		// fast device re-solving against an unchanged consensus refines,
		// not multiplies, its contribution (this is what keeps the
		// stale-synchronous scheme stable where naive per-arrival dual
		// accumulation diverges).
		fresh[up.user] = up
		if len(fresh) < acfg.Barrier {
			continue
		}

		// Barrier fold: the z-update runs over every device's freshest
		// solution (stale ones participate with their standing x and u —
		// bounded staleness) and the dual updates touch only this
		// barrier's fresh participants, exactly the sync rule restricted
		// to them. The algebra is admm.AsyncFold, unweighted here; its
		// entries go in slot order, which the running sum's rounding follows.
		entries = entries[:0]
		for t := range workers {
			if f, ok := fresh[t]; ok {
				entries = append(entries, admm.FoldEntry{User: t, X: f.x})
			}
		}
		st.mu.Lock()
		dual, contributors := st.fold.Fold(entries)
		st.mu.Unlock()
		clear(fresh)
		everyoneReported = everyoneReported || contributors == tCount
		lastDual = dual
		// Only this goroutine writes the fold, so its primal residual is read
		// without the lock, and only where it is needed.
		if r := cfg.Obs; r != nil {
			admm.ObserveRound(r, barrier, barrierStart, admm.Residuals{Primal: st.fold.Primal(), Dual: dual})
			barrier++
			barrierStart = time.Now()
		}

		if everyoneReported && dual <= acfg.EpsAbs &&
			st.fold.Primal() <= math.Sqrt(float64(tCount))*acfg.EpsAbs {
			break
		}
	}
	close(stop)
	// Drain any in-flight sends so worker goroutines can exit.
	go func() {
		for range updatesCh {
		}
	}()
	wg.Wait()
	close(updatesCh)
	lastRes := admm.Residuals{Primal: fold.Primal(), Dual: lastDual}
	if loopErr != nil {
		return nil, 0, totalUpdates, 0, lastRes, loopErr
	}

	st.mu.Lock()
	z := st.fold.Z.Clone()
	us := st.fold.Us
	st.mu.Unlock()
	// Final synchronous sweep: every device re-solves against the settled
	// consensus so the personalized hyperplanes (and the objective) are
	// consistent with z, not with whatever stale snapshot a device last
	// saw mid-flight. These solves are not folded into the consensus, so
	// they count under their own metric, not async_updates_total.
	sweepSolves := 0
	sweepCounter := cfg.Obs.Counter(obs.MetricAsyncSweepSolves, "")
	obj := z.SquaredNorm()
	lambdaOverT := cfg.Lambda / float64(tCount)
	for t, wk := range workers {
		_, v, xi, err := wk.Solve(z, us[t], acfg.Rho)
		if err != nil {
			return nil, 0, totalUpdates, sweepSolves, lastRes, fmt.Errorf("core: TrainAsync: final sweep user %d: %w", t, err)
		}
		obj += lambdaOverT*v.SquaredNorm() + xi
		sweepSolves++
		sweepCounter.Inc()
	}
	if math.IsNaN(obj) {
		return nil, 0, totalUpdates, sweepSolves, lastRes, errors.New("core: TrainAsync: objective diverged")
	}
	return z, obj, totalUpdates, sweepSolves, lastRes, nil
}
