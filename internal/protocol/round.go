// The lockstep round engine. A CCCP round of the wire plane is one loop —
// barrierRound — run by every node over its children: the single
// coordinator over its devices, a shard over its partition, and the
// aggregator over its shards. Per ADMM iteration the sum leg gathers the
// children at the barrier and yields one Σ(x_t+u_t) partial per reduce
// group; the reducer turns the partials into the consensus z; the residual
// leg applies z and yields the residual and objective partials, which go
// back the same way. A device's group partials are computed here (sumPartials,
// applyZ, objectivePartials); a shard is a remote reduce group, which
// answers both legs over the wire with its own. A root's reducer is the
// consensusFold itself, in process; a shard's reducer ships its partials to
// the aggregator. One copy of the partial arithmetic (here) and one copy of
// the fold (consensusFold) is what makes the planes bit-identical.
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
// order. It is the reducer of a node without a parent.
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

// rootRound is one lockstep CCCP round of a node without a parent: a
// barrier round whose partials fold in process. Its objective closes the
// round. Sign flips are unknown above the devices: -1.
func (st *serverState) rootRound(round int, info *core.TrainInfo) (float64, int, error) {
	fold := newConsensusFold(st.cfg.Dist, st.cfg.Core.Obs, info, st.w0)
	if err := st.barrierRound(round, fold); err != nil {
		return 0, 0, err
	}
	return fold.obj, -1, st.completeRound(round, fold.obj)
}

// beginRound opens CCCP round `round` in either gather mode: it fixes the
// linearization point every child is sent (start-round or shard-round)
// before its next exchange, and attaches queued rejoins.
func (st *serverState) beginRound(round int) {
	st.epoch = round
	st.degraded = false
	st.drainRejoins()
	st.roundW0 = st.w0
	for _, u := range st.users {
		if !u.dropped {
			u.needSync = true
		}
	}
}

// barrierRound runs one lockstep CCCP round over this node's children:
// announce the linearization point, then iterate ADMM — the sum leg at the
// barrier, the groups' consensus partials reduced to z, the residual leg
// applying z, the residual and objective partials reduced — until red ends
// the round. st.w0 is the consensus the round starts from and, on success,
// the one it ended on.
func (st *serverState) barrierRound(round int, red reducer) error {
	st.beginRound(round)
	// Scaled duals persist across CCCP rounds (ADMM warm start); a
	// first-time device starts from zero. A shard keeps its own.
	for t, u := range st.users {
		if !u.dropped && st.us[t] == nil && u.kind == deviceChild {
			st.us[t] = mat.NewVector(st.dim)
		}
	}
	z := st.w0
	for iter := 0; ; iter++ {
		if err := st.gather(iter, sumLeg, z); err != nil {
			return err
		}
		sums, workers := st.sumPartials()
		var err error
		if z, err = red.reduceZ(iter, sums, workers); err != nil {
			return err
		}
		if err := st.gather(iter, residLeg, z); err != nil {
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

// sumPartials refills the iteration's reduce inputs from what the sum leg
// left: the survivors' (x_t, u_t) by reduce group, in the groups' slot
// order, and one Σ(x_t+u_t) partial per group. A group whose members all
// dropped contributes no partial. A shard's partial is the one it sent (or
// the one carried for it). Everything lives in st's round scratch, valid
// until the next call.
func (st *serverState) sumPartials() (sums []mat.Vector, workers int) {
	if st.remote() {
		st.sums = st.sums[:0]
		for _, u := range st.users {
			if !u.dropped {
				st.sums, workers = append(st.sums, u.sum), workers+u.live
			}
		}
		return st.sums, workers
	}
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
// Σ‖x_t−z‖² partials, in group order. A shard applied z to its own duals
// when the residual leg brought it there, and sent back its partial.
func (st *serverState) applyZ(z mat.Vector) []float64 {
	st.primals = st.primals[:0]
	if st.remote() {
		for _, u := range st.users {
			if !u.dropped {
				st.primals = append(st.primals, u.primal)
			}
		}
		return st.primals
	}
	for g := range st.sums {
		st.primals = append(st.primals, shard.ApplyZ(st.gxs[g], st.gus[g], z))
	}
	return st.primals
}

// objectivePartials is each reduce group's Eq. (23) contribution from the
// last reported (v_t, ξ_t) of its live users (a shard's: the partial it
// sent), in group order; all-dropped groups are skipped like in
// sumPartials.
func (st *serverState) objectivePartials() []float64 {
	partials := st.objs[:0]
	for _, slots := range st.groups {
		var p float64
		live := false
		for _, t := range slots {
			if u := st.users[t]; !u.dropped {
				live = true
				if u.kind == shardChild {
					p = u.obj // a shard is a group of its own
				} else if u.lastV != nil {
					p += float64(st.lambdaOverT*u.lastV.SquaredNorm()) + u.lastXi
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

// reduceLeg is one of the two exchanges an ADMM iteration has with a shard.
// A device answers only the sum leg: the node computes the residual from
// the solution it brought.
type reduceLeg int

const (
	sumLeg   reduceLeg = iota // params → update; shard-round or shard-next → shard-sum
	residLeg                  // shard-z → shard-resid
)

// launch hands one exchange with child t to its connection's link, made by
// the first. A device is sent this round's start-round first when it has not
// frozen the round's signs yet, then params carrying (z, u_t); seq is the
// params sequence number its update must echo. A shard is sent the message
// that opens the leg: shard-round on the round's first iteration or
// shard-next before the sum leg, shard-z carrying z before the residual leg.
// tag comes back on the exchangeReply.
//
// A message outlives the iteration that built it — a straggling exchange
// holds it until the child takes it — so a vector goes into one only if
// nobody writes it before then. roundW0 and the barrier's z are made once and
// never written again: shared. dual is st.us[t], which the next fold advances
// in place, and so is the asynchronous mode's z (admm.AsyncFold rebuilds it):
// both are sent from the link's copies. The messages themselves are the
// link's start and out, lent to the exchange until it reports.
func (st *serverState) launch(t, seq, tag int, leg reduceLeg, z, dual mat.Vector) {
	u := st.users[t]
	if u.link == nil {
		u.link = &link{reply: exchangeReply{user: t, conn: u.conn}, replies: st.replies}
		u.link.x.Open(u.conn, u.link)
	}
	l := u.link
	l.start.Type = 0
	l.reply.iter, l.reply.seq, l.reply.want = tag, seq, transport.MsgShardSum
	switch {
	case u.kind == deviceChild:
		if u.needSync {
			l.start = transport.Message{Type: transport.MsgStartRound, Round: st.epoch, W0: st.roundW0}
		}
		if st.cfg.Async {
			l.z = append(l.z[:0], z...)
			z = l.z
		}
		l.dual = append(l.dual[:0], dual...)
		l.out = transport.Message{Type: transport.MsgParams, Round: seq, W0: z, U: l.dual}
		l.reply.want = transport.MsgUpdate
	case leg == residLeg:
		l.out = transport.Message{Type: transport.MsgShardZ, Round: seq, W0: z}
		l.reply.want = transport.MsgShardResid
	case u.needSync:
		// The round announcement carries the objective that closed the
		// previous round, so the shard completes its history and checkpoint.
		l.out = transport.Message{Type: transport.MsgShardRound, Round: st.epoch, W0: st.roundW0}
		if n := len(st.objHistory); n > 0 {
			l.out.Xi = st.objHistory[n-1]
		}
	default:
		l.out = transport.Message{Type: transport.MsgShardNext, Round: seq}
	}
	u.needSync, u.pending = false, true
	l.x.Exchange(&l.start, &l.out)
}

// errBadUpdate marks a child's reply refused at admission.
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

// admit is the admission check on a child's reply to an exchange that asked
// for want with a message of sequence number seq, which the reply echoes.
// Children are untrusted: a reply of the wrong kind, round or shape, or with
// a non-finite number, would otherwise crash the fold or poison w0 for every
// user, and an update echoing another params frame — stale, replayed or
// sent unasked — answers a z it was not solved against. A shard that failed
// locally answers with a structured MsgError, whose cause is the refusal.
func admit(m transport.Message, want transport.MsgType, seq, dim int) error {
	update, sum, resid := want == transport.MsgUpdate, want == transport.MsgShardSum, want == transport.MsgShardResid
	switch {
	case m.Type == transport.MsgError && !update:
		return shardErrorCause(m)
	case m.Type != want:
		return fmt.Errorf("%w: got %v, want %v", ErrUnexpectedMsg, m.Type, want)
	case !update && m.Round != seq:
		return fmt.Errorf("%w: %v for iteration %d, want %d", ErrUnexpectedMsg, want, m.Round, seq)
	case update && m.Round != seq:
		return fmt.Errorf("%w: update for params %d, want %d", errBadUpdate, m.Round, seq)
	case update && (len(m.W) != dim || len(m.V) != dim):
		return fmt.Errorf("%w: W has %d and V has %d entries, want %d", errBadUpdate, len(m.W), len(m.V), dim)
	case update && !allFinite(m.W):
		return fmt.Errorf("%w: non-finite coordinate in W", errBadUpdate)
	case update && !allFinite(m.V):
		return fmt.Errorf("%w: non-finite coordinate in V", errBadUpdate)
	case update && (math.IsNaN(m.Xi) || math.IsInf(m.Xi, 0)):
		return fmt.Errorf("%w: non-finite Xi", errBadUpdate)
	case sum && (len(m.W0) != dim || m.Users <= 0):
		return fmt.Errorf("%w: shard-sum has %d entries and %d users, want %d and at least 1",
			errBadUpdate, len(m.W0), m.Users, dim)
	case sum && !allFinite(m.W0):
		return fmt.Errorf("%w: non-finite coordinate in shard-sum", errBadUpdate)
	case resid && len(m.W) != 1:
		return fmt.Errorf("%w: shard-resid has %d objective partials, want 1", errBadUpdate, len(m.W))
	case resid && (!allFinite(m.W) || !(m.Xi >= 0) || math.IsInf(m.Xi, 0)):
		// Xi is a sum of squared norms: finite and non-negative, or garbage.
		return fmt.Errorf("%w: non-finite or negative shard-resid partials (primal %v, objective %v)",
			errBadUpdate, m.Xi, m.W[0])
	}
	return nil
}

// errBadHello marks a handshake hello refused at admission.
var errBadHello = errors.New("protocol: hello refused")

// admitHello is admit for the handshake. A hello's vectors seed w0 for every
// user — a device's init hyperplane, a fresh shard's init partials, a
// restoring shard's w0 and objective history — so a misshapen one would
// crash the init fold and a non-finite one poison the run before its first
// round.
func admitHello(m transport.Message) error {
	fresh := m.Type == transport.MsgShardHello && m.Labeled != 1
	switch {
	case m.Dim <= 0 || len(m.W) != m.Dim:
		return fmt.Errorf("%w: hello W has %d entries for dimension %d", ErrDimMismatch, len(m.W), m.Dim)
	case fresh && len(m.U) != m.Dim:
		return fmt.Errorf("%w: shard hello U has %d entries for dimension %d", ErrDimMismatch, len(m.U), m.Dim)
	case !allFinite(m.W) || !allFinite(m.U) || !allFinite(m.V):
		return fmt.Errorf("%w: non-finite coordinate", errBadHello)
	case fresh && (!(m.Xi >= 0) || math.IsInf(m.Xi, 0)):
		// Xi is the partition's total init weight: a sum of label counts.
		return fmt.Errorf("%w: shard init weight %v", errBadHello, m.Xi)
	}
	return nil
}

// ingest is the one place a child's reply enters node state, in every
// gather mode. A failed exchange or a reply refused by admit counts as a
// connection failure: the cause is recorded, the connection closed, and the
// child left to the carry / drop / quorum policy on what it delivered last.
// Reports whether the reply was stored.
func (st *serverState) ingest(r *exchangeReply) bool {
	u := st.users[r.user]
	u.pending = false
	if u.dropped {
		return false
	}
	err := r.err
	if err == nil {
		err = admit(r.msg, r.want, r.seq, st.dim)
	}
	if err != nil {
		st.noteConnFailure(r.user, r.conn, err)
		return false
	}
	u.fresh = true
	u.stale = 0
	// The reply's vectors are lent until the connection's next Recv, and
	// stale reuse reads them long after: the slot keeps its own copy.
	switch m := r.msg; m.Type {
	case transport.MsgShardSum:
		u.sum, u.live = append(u.sum[:0], m.W0...), m.Users
		// Labeled is the shard's health stamp, code+1 (0: no engine there).
		if m.Labeled > 0 {
			st.cfg.Core.Obs.ReportHealth(fmt.Sprintf("shard:%d", r.user), m.Labeled-1, "shard-reported")
		}
	case transport.MsgShardResid:
		u.primal, u.obj, u.resid = m.Xi, m.W[0], true
	default:
		u.lastW = append(u.lastW[:0], m.W...)
		u.lastV = append(u.lastV[:0], m.V...)
		u.lastXi = m.Xi
		st.recordDeviceTelemetry(r)
	}
	return true
}

// gather runs one leg of ADMM iteration iter at the barrier: one exchange
// with every reachable, idle child, then the carry-or-drop policy over
// whoever did not deliver. On return every child still in the fold holds
// what this leg folds, fresh or carried.
//
// The round deadline means different things to the kinds. A device that
// misses it is a straggler: its exchange stays in flight, and its last
// solution may stand in. A shard that misses it is detached: the close ends
// its exchange, whose report the loop still collects, so no shard exchange
// outlives its leg.
func (st *serverState) gather(iter int, leg reduceLeg, z mat.Vector) error {
	cfg := st.cfg
	if leg == residLeg && !st.remote() {
		return nil // a device's residual is the node's own arithmetic (applyZ)
	}
	// With Resume a device may rejoin at any iteration boundary; a shard
	// rejoins only at a round's, where its fast-forward lands it.
	if cfg.FT.Resume {
		st.drainRejoins()
	}
	st.clock = time.Now()

	// Reused every leg: drop, called below while the loop reads it, builds none.
	st.parts = st.parts[:0]
	waiting := 0
	for t, u := range st.users {
		if u.dropped {
			continue
		}
		st.parts = append(st.parts, t)
		u.fresh = false
		if !u.pending && u.conn != nil {
			st.launch(t, iter, iter, leg, z, st.us[t])
			waiting++
		}
	}

	// Collect until every launched exchange reported or the round deadline
	// fires.
	var deadline <-chan time.Time
	if cfg.FT.RoundTimeout > 0 && waiting > 0 {
		timer := time.NewTimer(cfg.FT.RoundTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for waiting > 0 {
		var r *exchangeReply
		if deadline == nil {
			r = <-st.replies
		} else {
			select {
			case r = <-st.replies:
			case <-deadline:
				deadline = nil
				if !st.remote() {
					waiting = 0
					continue
				}
				for _, t := range st.parts {
					if u := st.users[t]; u.pending {
						st.noteConnFailure(t, u.conn, fmt.Errorf("protocol: shard %d missed the reduce deadline (%v) of iteration %d",
							t, cfg.FT.RoundTimeout, iter))
					}
				}
				continue
			}
		}
		if r.iter == iter {
			waiting--
		} else if r.err == nil {
			// A previous iteration's straggler: its solution answers an
			// outdated z, so only the connection is released.
			st.users[r.user].pending = false
			continue
		}
		st.ingest(r)
	}

	// A child without a fresh reply is carried on what it delivered last or
	// dropped; drop fails the run below the quorum (at least one).
	for _, t := range st.parts {
		if u := st.users[t]; !u.fresh && !st.carry(t, iter, leg) {
			cause := u.cause
			if cause == nil {
				cause = fmt.Errorf("no update within the round deadline (stale budget %d exhausted)", cfg.FT.MaxStale)
			}
			if err := st.drop(t, cause); err != nil {
				return err
			}
		}
	}
	return nil
}

// carry decides whether child t, which did not deliver this leg of
// iteration iter, stays in the fold on what it delivered last, and books the
// reuse. A device within its stale budget stands in with its last solution
// when it is a deadline straggler, or when Resume gives a lost one a way
// back. A detached shard's last sum stands in within MaxStale, and its last
// residual partials follow whenever stale carry is on. A carry marks the
// round degraded.
func (st *serverState) carry(t, iter int, leg reduceLeg) bool {
	u, ft := st.users[t], st.cfg.FT
	var ok bool
	switch {
	case u.kind == deviceChild:
		ok = u.lastW != nil && u.stale < ft.MaxStale && (ft.Resume || ft.RoundTimeout > 0 && !u.detached)
	case leg == residLeg:
		ok = u.resid && ft.MaxStale > 0
	default:
		ok = u.sum != nil && u.stale < ft.MaxStale
	}
	if !ok {
		return false
	}
	st.mStale.Inc()
	st.degraded = true
	if leg == residLeg {
		return true // the sum leg spent this iteration's budget
	}
	u.stale++
	if fr := st.flight(); fr != nil {
		rec := obs.Record{Kind: obs.RecordStaleReuse, Round: iter, User: t, Stale: u.stale}
		if u.kind == shardChild {
			rec = obs.Record{Kind: obs.RecordShardStale, Round: iter, Shard: t, Stale: u.stale}
		}
		fr.FlightRecord(rec)
	}
	return true
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
