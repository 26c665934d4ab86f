// The lockstep round engine. A CCCP round of the wire plane is one loop —
// barrierRound — run by the single coordinator over all of its users and by
// a shard over its partition. Per ADMM iteration it gathers every device's
// x-update at the barrier, computes one Σ(x_t+u_t) partial per reduce group,
// and hands the partials to a reducer; the reducer returns the consensus z,
// the loop applies it to the duals, and the residual and objective partials
// go back the same way. The coordinator's reducer is the consensusFold
// itself, in process; a shard's reducer ships the partials to the
// aggregator, which runs the same consensusFold on what its shards sent.
// One copy of the partial arithmetic (here) and one copy of the fold
// (consensusFold) is what makes the planes bit-identical.
//
// The asynchronous mode (async.go) is the second gather mode on the same
// state: it shares the round prologue (beginRound), the exchange launch,
// the reply-ingest point (ingest) and the objective partials, and replaces
// the barrier with one admm.AsyncFold per arrival.
package protocol

import (
	"errors"
	"fmt"
	"math"
	"time"

	"plos/internal/admm"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/shard"
	"plos/internal/transport"
)

// reducer is the far side of a barrier iteration: where this process's
// per-group partials meet the rest of the fleet.
type reducer interface {
	// reduceZ takes the groups' Σ(x_t+u_t) partials, in group order, and the
	// number of live workers behind them; it returns the reduced consensus z,
	// a vector made for this iteration that nobody writes again (stragglers
	// and the next round's start-round share it). sums is the round's scratch,
	// refilled next iteration: a reducer that keeps a partial copies it.
	reduceZ(iter int, sums []mat.Vector, workers int) (mat.Vector, error)
	// reduceResid takes the groups' Σ‖x_t−z‖² and Eq. (23) objective
	// partials and reports whether the CCCP round is over.
	reduceResid(iter int, primals, objs []float64) (done bool, err error)
}

// consensusFold is the global half of a CCCP round's ADMM iterations: the
// z-update, the Eq. (24) residuals with their stopping rule, and the
// Eq. (23) objective, each folded from partition partials in partition
// order. It is the single coordinator's reducer, and the aggregator drives
// it with the partials its shards delivered.
type consensusFold struct {
	dist core.DistConfig
	obs  *obs.Registry
	info *core.TrainInfo
	// z and obj are the consensus and the objective after the last
	// completed iteration.
	z   mat.Vector
	obj float64
	// The iteration in flight, between reduceZ and reduceResid.
	zNew    mat.Vector
	dual    float64
	workers int
	start   time.Time
}

func newConsensusFold(dist core.DistConfig, r *obs.Registry, info *core.TrainInfo, w0 mat.Vector) *consensusFold {
	return &consensusFold{dist: dist, obs: r, info: info, z: w0, start: time.Now()}
}

func (c *consensusFold) reduceZ(_ int, sums []mat.Vector, workers int) (mat.Vector, error) {
	rho := c.dist.Rho
	// The Eq. (23) z-update on the fold's fresh total, in place.
	c.zNew = shard.Fold(sums)
	c.zNew.Scale(admm.SquaredNormZScale(workers, rho))
	c.dual = admm.DualResidual(rho, workers, c.zNew, c.z)
	c.workers = workers
	return c.zNew, nil
}

func (c *consensusFold) reduceResid(iter int, primals, objs []float64) (bool, error) {
	res := admm.Residuals{Dual: c.dual, Primal: math.Sqrt(shard.FoldScalars(primals))}
	c.z = c.zNew
	c.obj = shard.FoldObjective(c.z.SquaredNorm(), objs)
	c.info.ADMMIterations++
	c.info.ADMMPrimal = res.Primal
	c.info.ADMMDual = res.Dual
	admm.ObserveRound(c.obs, iter, c.start, res)
	c.start = time.Now()
	return res.Converged(c.workers, c.dist.EpsAbs) || iter+1 >= c.dist.MaxADMMIter, nil
}

// beginRound opens CCCP round `round` in either gather mode: it fixes the
// linearization point every device is sent as start-round before its next
// params, and attaches queued rejoins.
func (st *serverState) beginRound(round int) {
	st.epoch = round
	st.drainRejoins()
	st.roundW0 = st.w0
	for _, t := range st.active() {
		st.users[t].needSync = true
	}
}

// barrierRound runs one lockstep CCCP round over this process's users:
// announce the linearization point, then iterate ADMM — gather at the
// barrier, reduce the groups' consensus partials to z, apply z to the
// duals, reduce the residual and objective partials — until red ends the
// round. st.w0 is the consensus the round starts from and, on success, the
// one it ended on.
func (st *serverState) barrierRound(round int, red reducer) error {
	st.beginRound(round)
	// Scaled duals persist across CCCP rounds (ADMM warm start); a
	// first-time participant starts from zero.
	for _, t := range st.active() {
		if st.us[t] == nil {
			st.us[t] = mat.NewVector(st.dim)
		}
	}
	z := st.w0
	for iter := 0; ; iter++ {
		if err := st.gather(iter, z); err != nil {
			return err
		}
		sums, workers := st.sumPartials()
		var err error
		if z, err = red.reduceZ(iter, sums, workers); err != nil {
			return err
		}
		done, err := red.reduceResid(iter, st.applyZ(z), st.objectivePartials())
		if err != nil {
			return err
		}
		if done {
			st.w0 = z
			return nil
		}
	}
}

// slotX refills user t's x_t = w_t − v_t buffer from its last solution.
func (st *serverState) slotX(t int) mat.Vector {
	u := st.users[t]
	st.xs[t] = mat.Resize(st.xs[t], st.dim)
	mat.SubVecTo(st.xs[t], u.lastW, u.lastV)
	return st.xs[t]
}

// sumPartials refills the iteration's reduce inputs from what gather left:
// the survivors' (x_t, u_t) by reduce group, in the groups' slot order, and
// one Σ(x_t+u_t) partial per group. A group whose members all dropped
// contributes no partial — a shard in its place would have aborted the run.
// Everything lives in st's round scratch, valid until the next call.
func (st *serverState) sumPartials() (sums []mat.Vector, workers int) {
	live := 0
	for _, slots := range st.groups {
		if live == len(st.gxs) {
			st.gxs, st.gus = append(st.gxs, nil), append(st.gus, nil)
		}
		xs, us := st.gxs[live][:0], st.gus[live][:0]
		for _, t := range slots {
			if !st.users[t].dropped {
				xs, us = append(xs, st.slotX(t)), append(us, st.us[t])
			}
		}
		st.gxs[live], st.gus[live] = xs, us
		if len(xs) > 0 {
			workers += len(xs)
			live++
		}
	}
	// Groups only ever die, so cutting sums to the live ones loses nothing.
	for len(st.sums) < live {
		st.sums = append(st.sums, mat.NewVector(st.dim))
	}
	st.sums = st.sums[:live]
	for g, sum := range st.sums {
		shard.SumXUTo(sum, st.gxs[g], st.gus[g])
	}
	return st.sums, workers
}

// applyZ folds the reduced consensus into the duals of the groups
// sumPartials laid out (u_t += x_t − z, in st.us) and returns their
// Σ‖x_t−z‖² partials, in group order.
func (st *serverState) applyZ(z mat.Vector) []float64 {
	st.primals = st.primals[:0]
	for g := range st.sums {
		st.primals = append(st.primals, shard.ApplyZ(st.gxs[g], st.gus[g], z))
	}
	return st.primals
}

// objectivePartials is each reduce group's Eq. (23) contribution from the
// last reported (v_t, ξ_t) of its live users, in group order; all-dropped
// groups are skipped like in barrierRound.
func (st *serverState) objectivePartials() []float64 {
	partials := st.objs[:0]
	for _, slots := range st.groups {
		var p float64
		live := false
		for _, t := range slots {
			if u := st.users[t]; !u.dropped {
				live = true
				if u.lastV != nil {
					p += st.lambdaOverT*u.lastV.SquaredNorm() + u.lastXi
				}
			}
		}
		if live {
			partials = append(partials, p)
		}
	}
	st.objs = partials
	return partials
}

// launch starts one exchange with user t on its own goroutine: this round's
// start-round first when the device has not frozen the round's signs yet,
// then params carrying (z, u_t). seq is the params sequence number the device
// sees; tag comes back on the exchangeReply.
//
// A message outlives the iteration that built it — a straggler's goroutine
// holds it until its Send has run — so a vector goes into one only if nobody
// writes it before then. roundW0 and the barrier's z are made once and never
// written again: shared. dual is st.us[t], which the next fold advances in
// place: sent from the slot's dualBuf (as the asynchronous caller's z, which
// admm.AsyncFold rebuilds in place, is from the slot's zBuf).
func (st *serverState) launch(t, seq, tag int, z, dual mat.Vector) {
	u := st.users[t]
	var start *transport.Message
	if u.needSync {
		start = &transport.Message{Type: transport.MsgStartRound, Round: st.epoch, W0: st.roundW0}
		u.needSync = false
	}
	u.dualBuf = append(u.dualBuf[:0], dual...)
	u.pending = true
	go st.exchange(t, tag, u.conn, start,
		transport.Message{Type: transport.MsgParams, Round: seq, W0: z, U: u.dualBuf})
}

// errBadUpdate marks a device update refused at admission.
var errBadUpdate = errors.New("protocol: update refused")

// allFinite reports whether every coordinate of v is a finite number.
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// admit is the admission check on a device's update: devices are untrusted,
// and a solution of the wrong shape or with a non-finite coordinate would
// otherwise crash the fold or poison w0 for every user.
func admit(m transport.Message, dim int) error {
	switch {
	case len(m.W) != dim || len(m.V) != dim:
		return fmt.Errorf("%w: W has %d and V has %d entries, want %d", errBadUpdate, len(m.W), len(m.V), dim)
	case !allFinite(m.W):
		return fmt.Errorf("%w: non-finite coordinate in W", errBadUpdate)
	case !allFinite(m.V):
		return fmt.Errorf("%w: non-finite coordinate in V", errBadUpdate)
	case math.IsNaN(m.Xi) || math.IsInf(m.Xi, 0):
		return fmt.Errorf("%w: non-finite Xi", errBadUpdate)
	}
	return nil
}

// ingest is the one place a device reply enters server state, in every
// gather mode. A failed exchange or an update refused by admit counts as a
// connection failure: the cause is recorded, the connection closed, and the
// device left to the stale-reuse / drop / quorum policy on its previous
// solution. Reports whether the reply was stored.
func (st *serverState) ingest(r exchangeReply) bool {
	u := st.users[r.user]
	u.pending = false
	if u.dropped {
		return false
	}
	err := r.err
	if err == nil {
		err = admit(r.msg, st.dim)
	}
	if err != nil {
		st.noteConnFailure(r.user, r.conn, err)
		return false
	}
	u.fresh = true
	u.stale = 0
	// The reply's vectors are lent until the connection's next Recv, and
	// stale reuse reads them long after: the slot keeps its own copy.
	u.lastW = append(u.lastW[:0], r.msg.W...)
	u.lastV = append(u.lastV[:0], r.msg.V...)
	u.lastXi = r.msg.Xi
	st.recordDeviceTelemetry(r)
	return true
}

// gather is the barrier gather mode: one exchange with every reachable,
// idle participant, then the stale-reuse / drop straggler policy over
// whoever did not deliver. On return every non-dropped user holds the
// solution this iteration folds.
func (st *serverState) gather(iter int, z mat.Vector) error {
	cfg := st.cfg
	st.drainRejoins()
	st.clock = time.Now()

	parts := st.active()
	waiting := 0
	for _, t := range parts {
		u := st.users[t]
		u.fresh = false
		if !u.pending && u.conn != nil {
			st.launch(t, iter, iter, z, st.us[t])
			waiting++
		}
	}

	// Collect until every launched exchange reported or the round deadline
	// fires; whoever is still pending becomes a straggler.
	var deadline <-chan time.Time
	if cfg.FT.RoundTimeout > 0 && waiting > 0 {
		timer := time.NewTimer(cfg.FT.RoundTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for waiting > 0 {
		select {
		case r := <-st.replies:
			if r.iter == iter {
				waiting--
			} else if r.err == nil {
				// A previous iteration's straggler: its solution answers an
				// outdated z, so only the connection is released.
				st.users[r.user].pending = false
				continue
			}
			st.ingest(r)
		case <-deadline:
			waiting = 0
		}
	}

	// A participant without a fresh reply is either carried on its last
	// solution (within the stale budget) or permanently dropped.
	survivors := 0
	for _, t := range parts {
		u := st.users[t]
		// Stale reuse covers deadline stragglers always, and lost
		// connections only when resume gives them a way back.
		reuse := u.lastW != nil && u.stale < cfg.FT.MaxStale &&
			(cfg.FT.RoundTimeout > 0 || cfg.FT.Resume) &&
			(cfg.FT.Resume || !u.detached)
		switch {
		case u.fresh:
		case reuse:
			u.stale++
			st.mStale.Inc()
			if fr := st.flight(); fr != nil {
				fr.FlightRecord(obs.Record{Kind: obs.RecordStaleReuse,
					Round: iter, User: t, Stale: u.stale})
			}
		default:
			cause := u.cause
			if cause == nil {
				cause = fmt.Errorf("no update within the round deadline (stale budget %d exhausted)", cfg.FT.MaxStale)
			}
			if err := st.drop(t, cause); err != nil {
				return err
			}
			continue
		}
		survivors++
	}
	if survivors == 0 {
		if fr := st.flight(); fr != nil {
			fr.FlightRecord(obs.Record{Kind: obs.RecordQuorum, Active: 0, Need: st.minActive()})
		}
		return fmt.Errorf("%w: all devices failed in the same round", ErrTooFewActive)
	}
	return nil
}

// completeRound closes CCCP round `round` on a process that owns devices:
// the objective joins the history, then the checkpoint when one is due.
func (st *serverState) completeRound(round int, obj float64) error {
	st.objHistory = append(st.objHistory, obj)
	ft := st.cfg.FT
	if done := len(st.objHistory); ft.CheckpointPath != "" && done%ft.CheckpointEvery == 0 {
		if err := SaveCheckpoint(ft.CheckpointPath, st.checkpoint(done)); err != nil {
			return fmt.Errorf("protocol: checkpoint after round %d: %w", round, err)
		}
		st.mCheckpoints.Inc()
	}
	return nil
}

// result assembles the ServerResult of a finished run.
func (st *serverState) result(info core.TrainInfo) *ServerResult {
	tCount := len(st.users)
	res := &ServerResult{
		Model:     &core.Model{W0: st.w0, W: make([]mat.Vector, tCount)},
		Info:      info,
		Dropped:   make([]bool, tCount),
		DropCause: make([]error, tCount),
		PerUser:   make([]transport.Stats, tCount),
	}
	for t, u := range st.users {
		res.Dropped[t] = u.dropped
		res.DropCause[t] = u.cause
		if !u.dropped {
			res.Model.W[t] = u.lastW
		}
		res.PerUser[t] = u.stats()
		res.Total = res.Total.Add(res.PerUser[t])
	}
	return res
}
