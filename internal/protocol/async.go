package protocol

import (
	"fmt"
	"math"
	"time"

	"plos/internal/admm"
	"plos/internal/core"
	"plos/internal/obs"
	"plos/internal/shard"
	"plos/internal/transport"
)

// Asynchronous protocol mode (DJAM; see docs/ASYNC.md).
//
// The mode is negotiated inside the existing hello exchange with no codec
// change: a device offers it by setting the otherwise-unused Users field of
// its hello to asyncHello, and the coordinator confirms by setting the
// otherwise-unused Samples field of its hello reply. Synchronous peers
// leave both fields zero, so sync-mode wire bytes are byte-identical to the
// pre-async protocol (pinned by TestSyncHandshakeBytesUnchanged).
//
// In asynchronous mode there is no global ADMM round clock. The
// coordinator hands each device a personalized consensus snapshot
// (MsgParams with z and u_t), and whenever a device's MsgUpdate arrives it
// is folded into w0 immediately under the staleness-weighted DJAM rule of
// admm.AsyncFold — weight γ(s) = 1/(1 + min(s, MaxStale)) where s is the
// arrival's age in fleet rounds — and the device is immediately re-armed
// with a fresh snapshot. The outer CCCP loop keeps its per-round
// start-round broadcast (the linearization point is global by
// construction), and a CCCP round ends once every attached device has
// folded at least one solution against this round's signs and the
// residual rule fires, or the fold budget — Dist.MaxADMMIter barrier
// rounds' worth of device updates, the same compute the lockstep mode
// would have spent — runs out. Devices still mid-solve at the boundary
// are carried: their reply is recorded and seeded as a standing solution,
// never folded across the linearization change.
const asyncHello = 1

// asyncGrace bounds how long the asynchronous round loop waits for a
// rejoin when every participant is detached, how long the final drain
// waits for in-flight solves before giving up on a connection, and how long
// a child may take to accept the run's last frame, when no round timeout is
// configured.
const asyncGrace = 30 * time.Second

// asyncRejoinGrace returns the wait budget of a rejoin wait, of the final
// drain and of each final send: the configured round timeout, or asyncGrace
// without one.
func (st *serverState) asyncRejoinGrace() time.Duration {
	if d := st.cfg.FT.RoundTimeout; d > 0 {
		return d
	}
	return asyncGrace
}

// asyncLaunch arms user t with a personalized consensus snapshot: the
// current (z, u_t) of the fold. Epochs are recorded so the arrival's
// staleness can be measured when it folds.
func (st *serverState) asyncLaunch(t int, fold *admm.AsyncFold) {
	st.asyncEpoch[t] = fold.Epoch()
	if fr := st.flight(); fr != nil {
		fr.FlightRecord(obs.Record{Kind: obs.RecordAsyncSnapshot,
			Round: st.epoch, User: t, Epoch: fold.Epoch()})
	}
	// The fold rebuilds Z in its own two buffers, and this exchange may stay
	// in flight across any number of folds: launch sends a copy.
	st.launch(t, fold.Epoch(), st.epoch, sumLeg, fold.Z, fold.Us[t])
}

// asyncSweepLaunch re-arms every idle attached participant — fast devices
// keep re-solving even after they reported, exactly like the in-process
// trainer's device goroutines.
func (st *serverState) asyncSweepLaunch(fold *admm.AsyncFold) {
	for t, u := range st.users {
		if !u.dropped && u.conn != nil && !u.pending {
			st.asyncLaunch(t, fold)
		}
	}
}

// asyncLatch is the residual half of the asynchronous round's stop rule: the
// last fold's dual residual and standing count, and its primal residual,
// computed only when read. The primal is a pass over every standing
// solution, so the stop test reads it last, and a Seed or Drop between folds
// (which changes the set it is defined over) is preceded by pin.
type asyncLatch struct {
	fold   *admm.AsyncFold
	eps    float64
	dual   float64
	n      int
	primal float64 // the last fold's primal residual; NaN until read
}

func newAsyncLatch(fold *admm.AsyncFold, eps float64) *asyncLatch {
	return &asyncLatch{fold: fold, eps: eps, dual: math.Inf(1), primal: math.NaN()}
}

// folded records the fold that just ran.
func (l *asyncLatch) folded(dual float64, n int) {
	l.dual, l.n, l.primal = dual, n, math.NaN()
}

// resid is the last fold's residuals.
func (l *asyncLatch) resid() admm.Residuals {
	if math.IsNaN(l.primal) {
		l.primal = l.fold.Primal()
	}
	return admm.Residuals{Primal: l.primal, Dual: l.dual}
}

// converged is the in-process trainer's residual rule on the last fold:
// ρ‖Δz‖ ≤ ε_abs, then sqrt(Σ_standing ‖x_t − z‖²) ≤ √n·ε_abs.
func (l *asyncLatch) converged() bool {
	return l.dual <= l.eps && l.resid().Primal <= math.Sqrt(float64(l.n))*l.eps
}

// pin computes the last fold's primal now when converged could still read
// it: the caller is about to change the standing set.
func (l *asyncLatch) pin() {
	if l.dual <= l.eps {
		l.resid()
	}
}

// asyncCCCPRound is the arrival-order gather mode of a CCCP round: the same
// prologue, ingest point and objective as barrierRound, driven by
// per-arrival staleness-weighted folds instead of lockstep ADMM iterations.
// It returns the Eq. (23) objective computed from every live device's last
// reported (v_t, ξ_t), like the barrier round.
func (st *serverState) asyncCCCPRound(round int, info *core.TrainInfo) (float64, error) {
	cfg := st.cfg
	st.beginRound(round)

	// The fold budget is the arrival-ordered analogue of the lockstep
	// iteration cap: at most MaxADMMIter barrier rounds' worth of device
	// updates per CCCP round, so the two wire modes spend the same compute
	// and differ only in who they wait for.
	live := st.count(inFold)
	acfg := core.AsyncConfig{Rho: cfg.Dist.Rho, EpsAbs: cfg.Dist.EpsAbs,
		MaxUpdatesPerRound: cfg.Dist.MaxADMMIter * live,
	}.WithDefaults(live)
	// Warm-start: duals persist across CCCP rounds (like the synchronous
	// driver) and each device's last solution is carried as its standing
	// contribution, so rounds after the first never block on a straggler
	// to reach full-fleet consensus coverage. The session has one fold: the
	// first round makes it and loads the duals a restore carried in, later
	// rounds restart it on the duals it kept.
	fold := st.fold
	if fold == nil {
		var err error
		fold, err = admm.NewAsyncFold(st.w0, len(st.users), cfg.Dist.Rho,
			admm.DJAMWeight(float64(cfg.FT.MaxStale)))
		if err != nil {
			return 0, err
		}
		for t, u := range st.users {
			if d, ok := st.us[t]; ok && !u.dropped {
				fold.Us[t].CopyFrom(d)
			}
		}
		st.fold = fold
	} else {
		fold.Restart(st.w0)
	}
	for t, u := range st.users {
		if !u.dropped && u.lastW != nil && u.lastV != nil {
			fold.Seed(t, st.slotX(t))
		}
	}

	asyncUpdates := cfg.Core.Obs.Counter(obs.MetricAsyncUpdates, "")
	staleFolds := cfg.Core.Obs.Counter(obs.MetricAsyncStaleFolds, "")
	reported := make([]bool, len(st.users))
	folded := 0
	latch := newAsyncLatch(fold, acfg.EpsAbs)
	st.clock = time.Now()
	foldStart := st.clock

	// roundDone: every attached live device folded a solution computed
	// against this round's linearization at least once (detached devices
	// are carried on their standing solutions — the stale-reuse analogue)
	// and the in-process trainer's residual rule fires.
	roundDone := func() bool {
		if folded == 0 {
			return false
		}
		for t, u := range st.users {
			if !u.dropped && u.conn != nil && !reported[t] {
				return false
			}
		}
		return latch.converged()
	}

	st.asyncSweepLaunch(fold)
	for folded < acfg.MaxUpdatesPerRound && !roundDone() {
		if st.count(inFlight) == 0 {
			// Every remaining participant is detached: wait for a rejoin
			// within the grace budget, then re-arm whoever attached.
			if !st.asyncAwaitRejoin() {
				break
			}
			st.asyncSweepLaunch(fold)
			continue
		}
		r := <-st.replies
		u := st.users[r.user]
		if !st.ingest(r) {
			if u.detached && !cfg.FT.Resume {
				// The exchange failed and nothing can bring the device back.
				if err := st.drop(r.user, u.cause); err != nil {
					return 0, err
				}
				latch.pin()
				fold.Drop(r.user)
			}
			// A rejoin may already have replaced the connection.
			st.asyncSweepLaunch(fold)
			continue
		}
		// The slot's buffer, refilled from the reply; the fold copies it.
		x := st.slotX(r.user)
		if r.iter != round {
			// Solved against a previous round's linearization: carry it as
			// a standing solution (bounded staleness), never fold it across
			// the sign change, and re-arm the device with this round's
			// start-round (needSync was re-set at the round boundary).
			latch.pin()
			fold.Seed(r.user, x)
			st.drainRejoins()
			st.asyncSweepLaunch(fold)
			continue
		}
		fleet := st.count(attached)
		if fleet < 1 {
			fleet = 1
		}
		stale := float64(fold.Epoch()-st.asyncEpoch[r.user]) / float64(fleet)
		latch.folded(fold.Fold([]admm.FoldEntry{{User: r.user, X: x, Stale: stale}}))
		folded++
		info.ADMMIterations++
		asyncUpdates.Inc()
		if stale >= 1 {
			staleFolds.Inc()
		}
		reported[r.user] = true
		if r := cfg.Core.Obs; r != nil {
			admm.ObserveRound(r, fold.Epoch()-1, foldStart, latch.resid())
			foldStart = time.Now()
		}
		if fr := st.flight(); fr != nil {
			res := latch.resid()
			fr.FlightRecord(obs.Record{Kind: obs.RecordAsyncFold,
				Round: round, User: r.user, Epoch: fold.Epoch() - 1,
				Staleness: stale, Weight: fold.Weight(stale),
				Primal: res.Primal, Dual: res.Dual})
		}
		st.drainRejoins()
		st.asyncSweepLaunch(fold)
	}
	if folded > 0 {
		res := latch.resid()
		info.ADMMPrimal, info.ADMMDual = res.Primal, res.Dual
	}

	// Straggler policy at the round boundary: a live device that never
	// folded against this round's linearization was served from its
	// standing solution; that costs one unit of stale budget, and a device
	// out of budget with no connection to answer on is dropped.
	for t, u := range st.users {
		if u.dropped || reported[t] {
			continue
		}
		if u.lastW != nil && u.stale < cfg.FT.MaxStale {
			u.stale++
			st.mStale.Inc()
			if fr := st.flight(); fr != nil {
				fr.FlightRecord(obs.Record{Kind: obs.RecordStaleReuse,
					Round: round, User: t, Stale: u.stale})
			}
			continue
		}
		if u.conn != nil || u.pending {
			continue // still reachable: give the straggler the next round
		}
		cause := u.cause
		if cause == nil {
			cause = fmt.Errorf("no asynchronous update within %d rounds (stale budget exhausted)", cfg.FT.MaxStale)
		}
		if err := st.drop(t, cause); err != nil {
			return 0, err
		}
		fold.Drop(t)
	}
	if folded == 0 && fold.Standing() == 0 {
		return 0, fmt.Errorf("%w: no device delivered an asynchronous update", ErrTooFewActive)
	}

	st.w0 = fold.Z.Clone()
	for t, u := range st.users {
		if !u.dropped {
			st.us[t] = fold.Us[t]
		}
	}

	return shard.FoldObjective(st.w0.SquaredNorm(), st.objectivePartials()), nil
}

// asyncAwaitRejoin blocks for one rejoin attempt when no exchange is in
// flight, bounded by the grace budget. Reports whether anything attached.
func (st *serverState) asyncAwaitRejoin() bool {
	if !st.cfg.FT.Resume || st.cfg.FT.Rejoin == nil {
		return false
	}
	timer := time.NewTimer(st.asyncRejoinGrace())
	defer timer.Stop()
	for {
		select {
		case rj := <-st.cfg.FT.Rejoin:
			before := st.count(attached)
			st.attach(rj)
			if st.count(attached) > before {
				return true
			}
		case <-timer.C:
			return false
		}
	}
}

// asyncDrain collects the exchanges still in flight when training ends so
// the done broadcast reaches every connection (broadcast skips pending
// conns). Final arrivals update the device's last solution — they are the
// freshest personalized hyperplanes — but nothing is folded. A device that
// does not answer within the grace budget is left out of the done.
func (st *serverState) asyncDrain() {
	timer := time.NewTimer(st.asyncRejoinGrace())
	defer timer.Stop()
	for st.count(inFlight) > 0 {
		select {
		case r := <-st.replies:
			if u := st.users[r.user]; !st.ingest(r) && u.detached && !st.cfg.FT.Resume {
				// Nothing can bring the device back and the done will not
				// reach it; training is over, so the quorum verdict of drop
				// no longer matters.
				_ = st.drop(r.user, u.cause)
			}
		case <-timer.C:
			return
		}
	}
}

// recordDeviceTelemetry merges one update's telemetry piggyback into the
// flight stream.
func (st *serverState) recordDeviceTelemetry(r *exchangeReply) {
	fr := st.flight()
	if fr == nil || r.msg.Telemetry == nil {
		return
	}
	u := st.users[r.user]
	// The arrival offset is measured on the server's round clock; the
	// telemetry block carries only device-local durations, so no clock
	// synchronization is assumed.
	tel := r.msg.Telemetry
	// Compression savings are read from the server-side conn wrapper
	// (cumulative raw vs encoded payload bytes) — the device's telemetry
	// block stays at its v3 shape.
	var rawB, compB int64
	if cs, ok := u.conn.(transport.CompressionStats); ok {
		rawB, compB = cs.CompStats()
	}
	fr.FlightRecord(obs.Record{Kind: obs.RecordDeviceRound,
		Round: r.iter, User: r.user,
		Arrive: time.Since(st.clock), Solve: time.Duration(tel.SolveNS),
		QPIters: tel.QPIters, Cuts: tel.Cuts, WarmHits: tel.WarmHits,
		SignFlips: int(tel.SignFlips),
		Msgs:      tel.MsgsSent + tel.MsgsRecv,
		Bytes:     tel.BytesSent + tel.BytesRecv,
		RawBytes:  rawB,
		CompBytes: compB,
		EnergyJ:   tel.EnergyJ})
}
