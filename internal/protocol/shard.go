// The sharded serving plane (docs/SHARDING.md): RunAggregator owns the
// global consensus — it folds per-shard ADMM partials in shard order and
// drives the CCCP convergence decisions — while RunShard serves a partition
// of the devices with the same handshake, barrier round (round.go),
// fault-tolerance, and checkpoint machinery as RunServer — its reducer
// ships the round's partials over the aggregator link instead of folding
// them in process. The aggregator folds what arrives with the same
// consensusFold a single coordinator runs over its ReduceGroups, so the two
// planes are bit-identical by construction.
//
// Shard↔aggregator message flow (one connection per shard, fields reused
// from the device protocol — see the MsgShard* constants in transport):
//
//	shard → agg   shard-hello {shard id, dim, counts, init partials | restore state}
//	agg → shard   shard-hello {global T, hyperparameters}
//	per CCCP round:
//	  agg → shard   shard-round {round, w0, objective of the previous round}
//	  per ADMM iteration:
//	    shard → agg   shard-sum   {Σ(x_t+u_t), live count}
//	    agg → shard   shard-z     {reduced z}
//	    shard → agg   shard-resid {Σ‖x_t−z‖², objective partial}
//	    agg → shard   shard-next | shard-round | shard-done
//	agg → shard   shard-done {final w0, rounds, converged, final objective}
//
// Failure policy (docs/FAULT_TOLERANCE.md): before the round loop both
// sides abort with MsgError. Mid-run the aggregator runs one pump goroutine
// per shard connection, so it is always parked in Recv — a shard can safely
// Send a structured MsgError (shard id + cause code) when it fails locally,
// and the aggregator Sends only to shards whose current reduce leg already
// arrived (those are provably parked in Recv; everyone else is Closed,
// which a rendezvous pipe treats as an unblocking error). A shard that
// errors, lags past AggFTConfig.ReduceTimeout, or loses its link is
// *detached*: its connection is closed, its last partials are reused for up
// to MaxStale reduce iterations, and the run continues while at least
// ShardQuorum shards stay represented. A detached shard recovers by
// restarting from its checkpoint and re-running the restore handshake
// through AggFTConfig.Rejoin; the aggregator fast-forwards it to the
// current round. The zero AggFTConfig reproduces the strict PR 7 plane:
// no deadline, no stale reuse, and any shard failure aborts globally.
package protocol

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/rng"
	"plos/internal/shard"
	"plos/internal/transport"
)

// ShardConfig configures one shard process of a sharded serving plane.
type ShardConfig struct {
	// Shard is this process's shard index: 0-based, unique per aggregator,
	// and contiguous across the deployment. The aggregator folds shard
	// partials in this order, which is what pins the plane's bit-identity.
	Shard int
	// Core supplies the shard-local knobs (Seed, Obs). The training
	// hyperparameters arrive from the aggregator's hello reply and are
	// forwarded to the devices.
	Core core.Config
	// MinActive and FT form the shard-local fault-tolerance envelope over
	// this shard's devices, with the same semantics as in ServerConfig.
	// FT.Restore resumes this shard from a checkpoint (its own, or one
	// produced by SplitCheckpoint during a rebalance); the aggregator
	// validates that all shards restore the same epoch and global state.
	MinActive int
	FT        FTConfig
}

// AggFTConfig is the shard-tier fault-tolerance envelope — the same knobs
// FTConfig gives the device tier, lifted to whole shards. The zero value
// disables every mechanism and reproduces the strict fail-fast plane
// bit-for-bit.
type AggFTConfig struct {
	// ReduceTimeout bounds how long the aggregator waits for one reduce leg
	// (all live shards' sums, or all live shards' residuals). Shards that
	// miss it are detached: their connection is closed and they must rejoin
	// via checkpoint restore. 0 waits forever (strict lockstep).
	ReduceTimeout time.Duration
	// ShardQuorum is the number of shards that must be represented in every
	// fold (fresh message or stale carry); below it the run aborts with
	// ErrTooFewActive naming the first dead shard. <= 0 requires all shards
	// (strict).
	ShardQuorum int
	// MaxStale is how many consecutive ADMM iterations a detached shard's
	// last partials (consensus sum, primal residual, objective partial) keep
	// being folded before the shard stops being represented. 0 disables
	// stale carry.
	MaxStale int
	// Rejoin delivers checkpoint-restore reconnection attempts from crashed
	// shards (a restore shard-hello read off a fresh connection). Drained at
	// CCCP round boundaries and once more before the final broadcast, so a
	// shard that recovers as training ends still receives the final model;
	// the reply fast-forwards the shard to the current round. May be nil.
	Rejoin <-chan Rejoin
}

// AggConfig configures the top-level aggregator of a sharded serving plane.
// Core and Dist carry the full training configuration — the aggregator is
// the single source of hyperparameters and convergence decisions; shards
// and devices receive them through the handshake.
type AggConfig struct {
	Core core.Config
	Dist core.DistConfig
	// FT configures shard-tier fault tolerance; the zero value disables it.
	FT AggFTConfig
}

// AggResult is the aggregator's view of a finished sharded run. Per-user
// models stay on the shards (see the ServerResult each RunShard returns).
type AggResult struct {
	W0   mat.Vector
	Info core.TrainInfo
	// Users is the global population size T (summed over shard hellos).
	Users int
	// PerShard is the aggregator-side traffic per shard connection, indexed
	// by shard id; Total aggregates them. A shard that rejoined contributes
	// the traffic of every connection it used.
	PerShard []transport.Stats
	Total    transport.Stats
	// ShardCauses[id] is the first fatal failure recorded for shard id
	// (nil for shards that stayed healthy; non-nil for shards that were
	// detached, even if they later rejoined).
	ShardCauses []error
	// Restarts counts shards re-attached through the rejoin handshake.
	Restarts int
}

// Shard-tier MsgError cause codes carried in Message.Labeled: the shard id
// rides in Message.Round (-1 when the aggregator itself originated the
// abort), so plos-trace and the serve layer can name the failing shard.
const (
	shardCauseUnknown = 0
	shardCauseTooFew  = 1
)

// shardErrorMessage encodes a shard-tier abort: Round carries the
// originating shard id, Labeled the cause code, Reason the text.
func shardErrorMessage(id int, err error) transport.Message {
	code := shardCauseUnknown
	if errors.Is(err, ErrTooFewActive) {
		code = shardCauseTooFew
	}
	return transport.Message{Type: transport.MsgError, Round: id, Labeled: code, Reason: err.Error()}
}

// shardErrorCause reconstructs the error a structured shard-tier MsgError
// carries. The result always matches ErrAborted (it crossed the wire), and
// additionally matches the encoded cause (e.g. ErrTooFewActive) so callers
// can errors.Is through the plane.
func shardErrorCause(m transport.Message) error {
	if m.Labeled == shardCauseTooFew {
		if m.Round >= 0 {
			return fmt.Errorf("%w: shard %d: %w: %s", ErrAborted, m.Round, ErrTooFewActive, m.Reason)
		}
		return fmt.Errorf("%w: %w: %s", ErrAborted, ErrTooFewActive, m.Reason)
	}
	if m.Round >= 0 {
		return fmt.Errorf("%w: shard %d: %s", ErrAborted, m.Round, m.Reason)
	}
	return fmt.Errorf("%w: %s", ErrAborted, m.Reason)
}

// RunShard drives one shard of a sharded serving plane: it serves conns
// (this shard's devices) exactly like RunServer, except that every
// cross-user reduction is shipped to the aggregator over agg and the
// CCCP/ADMM control decisions arrive from there. Blocks until the
// aggregator finishes or fails. The returned ServerResult covers this
// shard's devices; W0 is the global model.
func RunShard(agg transport.Conn, conns []transport.Conn, cfg ShardConfig) (*ServerResult, error) {
	if len(conns) == 0 {
		return nil, ErrNoConns
	}
	sCfg := ServerConfig{Core: cfg.Core, MinActive: cfg.MinActive, FT: cfg.FT}
	if sCfg.FT.SessionSeed == 0 {
		// Each shard mints session tokens from its own split of the seed
		// stream so tokens stay unique across the whole deployment — the
		// consistent-hash ring partitions users by token on a rebalance.
		sCfg.FT.SessionSeed = rng.New(cfg.Core.Seed).SplitN("shard-session", cfg.Shard).Int63()
	}
	sCfg = sCfg.withDefaults()

	// Device hellos (or the checkpoint) first: the shard's own hello to the
	// aggregator carries the partition's init partials or restore state.
	var users []*serverUser
	var dim int
	var hello transport.Message
	if ck := sCfg.FT.Restore; ck != nil {
		var err error
		if users, err = matchRestoreConns(conns, ck); err != nil {
			// The aggregator is still blocked in its handshake Recv, so a
			// reasoned reject is safe; it unblocks the sibling shards.
			abortConn(agg, fmt.Sprintf("shard %d failed its restore handshake", cfg.Shard))
			return nil, err
		}
		live := 0
		for _, u := range users {
			if !u.dropped {
				live++
			}
		}
		dim = ck.Dim
		// Labeled 1 flags a restore hello; the aggregator validates that
		// every shard restores the same epoch, w0, and objective history.
		hello = transport.Message{Type: transport.MsgShardHello, Round: cfg.Shard,
			Dim: dim, Users: len(users), Samples: live, Labeled: 1,
			W: ck.W0, V: ck.Objective}
	} else {
		users = make([]*serverUser, len(conns))
		for t, c := range conns {
			users[t] = &serverUser{conn: c}
		}
		var initWs []mat.Vector
		var initWeights []float64
		var err error
		if dim, initWs, initWeights, err = collectHellos(users); err != nil {
			abortConn(agg, fmt.Sprintf("shard %d failed its device handshake", cfg.Shard))
			return nil, err
		}
		p := shard.NewInitPartial(initWs, initWeights, dim)
		hello = transport.Message{Type: transport.MsgShardHello, Round: cfg.Shard,
			Dim: dim, Users: len(users), Samples: len(users),
			W: p.Weighted, U: p.Plain, Xi: p.Weight}
	}
	// Past this point any failure must Close the aggregator connection
	// (never Send: the aggregator may itself be blocked in a Send to this
	// shard, and a rendezvous pipe would deadlock) so the run fails fast
	// everywhere instead of hanging the reduce.
	if err := agg.Send(hello); err != nil {
		abortUsers(users, "aggregator unreachable")
		_ = agg.Close()
		return nil, fmt.Errorf("protocol: shard %d: hello to aggregator: %w", cfg.Shard, err)
	}
	rep, err := agg.Recv()
	if err != nil {
		abortUsers(users, "aggregator lost during handshake")
		_ = agg.Close()
		return nil, fmt.Errorf("protocol: shard %d: aggregator hello reply: %w", cfg.Shard, err)
	}
	if rep.Type == transport.MsgError {
		abortUsers(users, rep.Reason)
		_ = agg.Close()
		return nil, fmt.Errorf("%w: %s", ErrAborted, rep.Reason)
	}
	if rep.Type != transport.MsgShardHello || rep.Config == nil || rep.Users <= 0 {
		abortUsers(users, "malformed aggregator handshake")
		_ = agg.Close()
		return nil, fmt.Errorf("%w: got %v, want shard-hello reply", ErrUnexpectedMsg, rep.Type)
	}

	// Device hello replies carry the *global* T (devices size their λ/T
	// terms with it) and the aggregator's hyperparameters; the telemetry
	// bit is overridden because piggybacks merge at this shard's recorder,
	// not the aggregator's.
	wire := *rep.Config
	wire.Telemetry = cfg.Core.Obs.FlightEnabled()
	var st *serverState
	migrated := 0
	if ck := sCfg.FT.Restore; ck != nil {
		if err := sendRestoreReplies(users, rep.Users, dim, ck.Epoch, &wire, false); err != nil {
			abortUsers(users, "shard handshake failed")
			_ = agg.Close()
			return nil, err
		}
		st = stateFromCheckpoint(sCfg, users, ck)
		// A rejoin reply fast-forwards a restarted shard past the rounds it
		// missed while detached: adopt the aggregator's current w0 and
		// objective history (the aggregator validated that the checkpoint's
		// history is a bitwise prefix before replying).
		if rep.Round > len(st.objHistory) && len(rep.V) == rep.Round && len(rep.W) == dim {
			st.w0 = mat.Vector(rep.W).Clone()
			st.objHistory = append([]float64(nil), rep.V...)
		}
		for _, u := range users {
			if !u.dropped {
				migrated++
			}
		}
	} else {
		needSessions := sCfg.FT.Resume || sCfg.FT.CheckpointPath != ""
		if err := sendHelloReplies(users, rep.Users, dim, &wire, needSessions, sCfg.FT.SessionSeed, false); err != nil {
			abortUsers(users, "shard handshake failed")
			_ = agg.Close()
			return nil, err
		}
		st = newServerState(sCfg, users, dim, mat.NewVector(dim))
	}

	r := cfg.Core.Obs
	r.Gauge(obs.MetricShardDevices, "").Set(float64(len(st.active())))
	if migrated > 0 {
		r.Counter(obs.MetricShardMigrations, "").Add(int64(migrated))
	}

	// λ/T uses the *global* T, which only the aggregator's reply knows.
	st.lambdaOverT = wire.Lambda / float64(rep.Users)
	info := core.TrainInfo{}
	sh := &shardRun{
		st: st, agg: agg, id: cfg.Shard, info: &info,
		run:     core.BeginRun(r, "shard", len(users)),
		mReduce: r.Histogram(obs.MetricShardReduceSeconds, ""),
		mBytes:  r.Counter(obs.MetricShardCrossBytesTotal, ""),
	}
	done, err := sh.loop()
	if err == nil && len(done.W0) != st.dim {
		err = fmt.Errorf("%w: final w0 has %d entries, dim %d", ErrDimMismatch, len(done.W0), st.dim)
	}
	if err != nil {
		st.abort(err.Error())
		sh.fatal(err)
		return nil, err
	}
	st.w0 = mat.Vector(done.W0).Clone() // kept past the aggregator link's loan
	info.CCCPIterations = done.Round
	info.CCCPConverged = done.Users == 1
	info.Objective = done.Xi
	info.ObjectiveHistory = append([]float64(nil), st.objHistory...)
	sh.run.End(&info)

	st.broadcast(transport.Message{Type: transport.MsgDone, W0: st.w0})
	return st.result(info), nil
}

// shardRun is the per-run state of RunShard's control loop on top of the
// shared serverState. It is the shard's reducer: the barrier round's
// partials cross the aggregator link and the decisions come back.
type shardRun struct {
	st   *serverState
	agg  transport.Conn
	id   int
	info *core.TrainInfo
	// run is the CCCP shell; the aggregator decides the rounds, so loop
	// opens each one when its announcement arrives and noteObjective closes
	// it when the next decision brings its objective.
	run *core.Run
	// decision is the message that ended the round (the next shard-round,
	// shard-done, or an error).
	decision transport.Message
	// The reduce in flight: live devices behind the shipped sum, and the
	// link traffic and wait accumulated over both legs.
	workers  int
	preStats transport.Stats
	wait     time.Duration
	mReduce  *obs.Histogram
	mBytes   *obs.Counter
}

// errAggLink marks failures of the aggregator link itself, as opposed to
// shard-local failures the aggregator should still be told about.
var errAggLink = errors.New("aggregator link failed")

func (sh *shardRun) aggLost(err error) error {
	return fmt.Errorf("protocol: shard %d: aggregator lost: %w: %w", sh.id, errAggLink, err)
}

// fatal ends the shard's participation after a failure. Locally-originated
// errors (a device quorum abort, a malformed decision) are reported to the
// aggregator as a structured MsgError first — the aggregator's pump is
// always parked in Recv, so the Send cannot deadlock a rendezvous pipe —
// then the link is closed. Failures that arrived *from* the aggregator
// (ErrAborted, a lost link) are not echoed back.
func (sh *shardRun) fatal(err error) {
	if !errors.Is(err, ErrAborted) && !errors.Is(err, errAggLink) {
		_ = sh.agg.Send(shardErrorMessage(sh.id, err))
	}
	_ = sh.agg.Close()
}

// loop processes aggregator decisions until the run ends, returning the
// final shard-done message.
func (sh *shardRun) loop() (transport.Message, error) {
	st := sh.st
	m, err := sh.agg.Recv()
	if err != nil {
		return transport.Message{}, sh.aggLost(err)
	}
	for {
		switch m.Type {
		case transport.MsgShardRound:
			if err := sh.noteObjective(m.Round, m.Xi); err != nil {
				return transport.Message{}, err
			}
			if len(m.W0) != st.dim {
				return transport.Message{}, fmt.Errorf("protocol: shard %d: round %d w0 has dim %d, want %d",
					sh.id, m.Round, len(m.W0), st.dim)
			}
			// Start-rounds and first params share w0 past the link's next Recv.
			st.w0 = mat.Vector(m.W0).Clone()
			sh.run.BeginRound(m.Round)
			if err := st.barrierRound(m.Round, sh); err != nil {
				return transport.Message{}, err
			}
			m = sh.decision
		case transport.MsgShardDone:
			if err := sh.noteObjective(m.Round, m.Xi); err != nil {
				return transport.Message{}, err
			}
			return m, nil
		case transport.MsgError:
			return transport.Message{}, shardErrorCause(m)
		default:
			return transport.Message{}, fmt.Errorf("%w: got %v from aggregator", ErrUnexpectedMsg, m.Type)
		}
	}
}

// noteObjective completes the just-finished round with the objective carried
// on the decision message that follows it. A decision for round ==
// len(history) starts the run (or continues a restore) and carries nothing
// to record.
func (sh *shardRun) noteObjective(round int, obj float64) error {
	st := sh.st
	if round == len(st.objHistory) {
		return nil
	}
	if round != len(st.objHistory)+1 {
		return fmt.Errorf("protocol: shard %d: aggregator decision for round %d, but history has %d entries",
			sh.id, round, len(st.objHistory))
	}
	sh.run.EndRound(round-1, obj, -1)
	return st.completeRound(round-1, obj)
}

// reduceZ is cross-shard reduce leg 1: ship Σ(x_t+u_t), wait for z. A shard
// is one reduce group, so sums holds exactly one partial.
func (sh *shardRun) reduceZ(iter int, sums []mat.Vector, workers int) (mat.Vector, error) {
	sh.workers = workers
	sh.preStats = sh.agg.Stats()
	waitStart := time.Now()
	// Labeled is a free fixed-width field on shard-sums; it piggybacks
	// this shard's health stamp (0 when no engine is attached, so the
	// frame stays byte-identical to pre-health builds) for the
	// aggregator's fleet rollup. No codec change.
	// The partial is the round's scratch; Send only borrows it.
	if err := sh.agg.Send(transport.Message{Type: transport.MsgShardSum,
		Round: iter, W0: sums[0], Users: workers,
		Labeled: sh.st.cfg.Core.Obs.HealthStamp()}); err != nil {
		return nil, sh.aggLost(err)
	}
	zm, err := sh.agg.Recv()
	if err != nil {
		return nil, sh.aggLost(err)
	}
	sh.wait = time.Since(waitStart)
	if zm.Type == transport.MsgError {
		return nil, shardErrorCause(zm)
	}
	if zm.Type != transport.MsgShardZ || zm.Round != iter || len(zm.W0) != sh.st.dim {
		return nil, fmt.Errorf("%w: got %v (round %d), want shard-z for iteration %d",
			ErrUnexpectedMsg, zm.Type, zm.Round, iter)
	}
	// Lent until the link's next Recv, sent by stragglers and the next
	// round's start-rounds after it: the iteration's z is a copy.
	return mat.Vector(zm.W0).Clone(), nil
}

// reduceResid is leg 2: ship the residual and objective partials, wait for
// the aggregator's decision. Anything but shard-next ends the round and is
// kept for loop.
func (sh *shardRun) reduceResid(iter int, primals, objs []float64) (bool, error) {
	waitStart := time.Now()
	if err := sh.agg.Send(transport.Message{Type: transport.MsgShardResid,
		Round: iter, Xi: primals[0], W: []float64{objs[0]}, Users: sh.workers}); err != nil {
		return false, sh.aggLost(err)
	}
	dec, err := sh.agg.Recv()
	if err != nil {
		return false, sh.aggLost(err)
	}
	sh.wait += time.Since(waitStart)
	sh.info.ADMMIterations++

	stats := sh.agg.Stats()
	bytes := (stats.BytesSent + stats.BytesReceived) - (sh.preStats.BytesSent + sh.preStats.BytesReceived)
	sh.mReduce.Observe(sh.wait.Seconds())
	sh.mBytes.Add(bytes)
	if fr := sh.st.flight(); fr != nil {
		fr.FlightRecord(obs.Record{Kind: obs.RecordShardReduce, Round: iter,
			Shard: sh.id, Dur: sh.wait, Bytes: bytes})
	}

	switch dec.Type {
	case transport.MsgShardNext:
		if dec.Round != iter+1 {
			return false, fmt.Errorf("%w: shard-next for iteration %d, want %d",
				ErrUnexpectedMsg, dec.Round, iter+1)
		}
		return false, nil
	case transport.MsgShardRound, transport.MsgShardDone, transport.MsgError:
		sh.decision = dec
		return true, nil
	default:
		return false, fmt.Errorf("%w: got %v from aggregator mid-round", ErrUnexpectedMsg, dec.Type)
	}
}

// aggShard is the aggregator's supervision state for one shard: its current
// connection (replaced on rejoin; gen guards against inbox messages from a
// replaced connection), liveness, the last partials it delivered (the
// stale-carry material), and the first fatal failure.
type aggShard struct {
	conn transport.Conn
	gen  int
	live bool
	// cause is the first fatal failure recorded for this shard; it is kept
	// even after a successful rejoin and feeds AggResult.ShardCauses.
	cause error
	// prev accumulates the traffic of closed or replaced connections.
	prev transport.Stats

	// Stale-carry material: the most recent consensus partials this shard
	// delivered, reusable for up to MaxStale iterations while detached.
	lastSum    mat.Vector
	lastUsers  int
	lastPrimal float64
	lastObj    float64
	haveResid  bool
	// stale counts consecutive iterations carried since the detach; fresh
	// and carried describe how the current iteration's sum leg was filled.
	stale   int
	fresh   bool
	carried bool
}

// aggMsg is one pump delivery: a message (or terminal receive error) from
// shard id's generation-gen connection.
type aggMsg struct {
	id, gen int
	m       transport.Message
	err     error
}

// aggRun is RunAggregator's state: the shard supervision table indexed by
// shard id — the deterministic fold order — and the global consensus.
type aggRun struct {
	cfg     AggConfig
	shards  []*aggShard
	dim     int
	globalT int
	wire    *transport.WireConfig
	w0      mat.Vector
	hist    []float64
	quorum  int

	inbox chan aggMsg
	stop  chan struct{}

	mStale    *obs.Counter
	mRestarts *obs.Counter
	restarts  int

	// degraded flags the round in flight as having folded at least one
	// carried (stale) partial: its objective mixes state from different
	// rounds, so the CCCP descent and convergence tests skip it.
	degraded bool
}

func newAggRun(cfg AggConfig, conns []transport.Conn, dim, globalT int,
	wire *transport.WireConfig, w0 mat.Vector, prior []float64) *aggRun {
	a := &aggRun{
		cfg: cfg, dim: dim, globalT: globalT, wire: wire,
		w0: w0, hist: append([]float64(nil), prior...),
		quorum:    cfg.FT.ShardQuorum,
		inbox:     make(chan aggMsg, 2*len(conns)),
		stop:      make(chan struct{}),
		mStale:    cfg.Core.Obs.Counter(obs.MetricShardStaleReduces, ""),
		mRestarts: cfg.Core.Obs.Counter(obs.MetricShardRestarts, ""),
	}
	if a.quorum <= 0 || a.quorum > len(conns) {
		a.quorum = len(conns)
	}
	for _, c := range conns {
		a.shards = append(a.shards, &aggShard{conn: c, live: true})
	}
	for id, s := range a.shards {
		go a.pump(id, s.gen, s.conn)
	}
	return a
}

// pump forwards one connection's receive stream into the shared inbox so
// the aggregator is always effectively parked in Recv on every link (which
// is what makes a shard's mid-run MsgError Send safe on a rendezvous pipe).
// It exits on the first receive error — the detach path closes the
// connection, which surfaces here — or when the run stops. A message waits in
// the inbox while the pump is back in Recv, which ends the loan of its
// vectors: the pump forwards copies (the stale-carry partials aggShard keeps).
func (a *aggRun) pump(id, gen int, c transport.Conn) {
	for {
		m, err := c.Recv()
		m.W0, m.U, m.W, m.V = slices.Clone(m.W0), slices.Clone(m.U), slices.Clone(m.W), slices.Clone(m.V)
		select {
		case a.inbox <- aggMsg{id: id, gen: gen, m: m, err: err}:
		case <-a.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// detach removes a failing or lagging shard from the live set: its first
// cause is recorded and its connection closed, unblocking the shard process,
// which treats the lost link as its cue to restart from checkpoint and
// rejoin. Idempotent.
func (a *aggRun) detach(id int, err error) {
	s := a.shards[id]
	if !s.live {
		return
	}
	s.live = false
	if s.cause == nil {
		s.cause = err
	}
	s.prev = s.prev.Add(s.conn.Stats())
	_ = s.conn.Close()
	if r := a.cfg.Core.Obs; r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordShardDown, Shard: id, Cause: err.Error()})
	}
}

// validateLeg checks one reduce-leg message against the expected shape and
// refuses partials that would poison the fold.
func validateLeg(m transport.Message, want transport.MsgType, iter, dim int) error {
	if m.Type != want || m.Round != iter {
		return fmt.Errorf("%w: got %v (round %d), want %v for iteration %d",
			ErrUnexpectedMsg, m.Type, m.Round, want, iter)
	}
	switch want {
	case transport.MsgShardSum:
		if len(m.W0) != dim || m.Users <= 0 {
			return fmt.Errorf("%w: malformed shard-sum (%d entries, %d users)",
				ErrUnexpectedMsg, len(m.W0), m.Users)
		}
		if !allFinite(m.W0) {
			return fmt.Errorf("%w: shard-sum has a non-finite coordinate", ErrUnexpectedMsg)
		}
	case transport.MsgShardResid:
		if len(m.W) != 1 {
			return fmt.Errorf("%w: malformed shard-resid (%d objective partials)",
				ErrUnexpectedMsg, len(m.W))
		}
		// Xi is a sum of squared norms: finite and non-negative, or garbage.
		if !allFinite(m.W) || !(m.Xi >= 0) || math.IsInf(m.Xi, 0) {
			return fmt.Errorf("%w: shard-resid partials are not finite (primal %v, objective %v)",
				ErrUnexpectedMsg, m.Xi, m.W[0])
		}
	}
	return nil
}

// collect gathers one reduce-leg message of type want (for ADMM iteration
// iter) from every live shard. Shards that error, send garbage, or miss the
// ReduceTimeout deadline are detached; the survivors' messages come back
// keyed by shard id. Messages from replaced or already-detached connections
// are discarded by generation and liveness.
func (a *aggRun) collect(iter int, want transport.MsgType) map[int]transport.Message {
	got := make(map[int]transport.Message)
	pending := 0
	for _, s := range a.shards {
		if s.live {
			pending++
		}
	}
	var deadline <-chan time.Time
	if a.cfg.FT.ReduceTimeout > 0 {
		t := time.NewTimer(a.cfg.FT.ReduceTimeout)
		defer t.Stop()
		deadline = t.C
	}
	for pending > 0 {
		select {
		case msg := <-a.inbox:
			s := a.shards[msg.id]
			if msg.gen != s.gen || !s.live {
				continue
			}
			_, had := got[msg.id]
			var ferr error
			switch {
			case msg.err != nil:
				ferr = msg.err
			case msg.m.Type == transport.MsgError:
				ferr = shardErrorCause(msg.m)
			default:
				ferr = validateLeg(msg.m, want, iter, a.dim)
			}
			if ferr != nil {
				a.detach(msg.id, ferr)
			} else {
				got[msg.id] = msg.m
			}
			if !had {
				pending--
			}
		case <-deadline:
			// Lagging is indistinguishable from dead: every live shard that
			// has not delivered this leg is detached and must rejoin via
			// checkpoint restore.
			for id, s := range a.shards {
				if _, ok := got[id]; s.live && !ok {
					a.detach(id, fmt.Errorf("protocol: aggregator: shard %d missed the %v reduce deadline (%v)",
						id, want, a.cfg.FT.ReduceTimeout))
				}
			}
			return got
		}
	}
	return got
}

// quorumErr builds the degraded-quorum abort: ErrTooFewActive naming the
// first dead shard and wrapping its cause.
func (a *aggRun) quorumErr(repr int) error {
	for id, s := range a.shards {
		if s.cause != nil {
			return fmt.Errorf("%w: %d of %d shards represented (quorum %d); first failure on shard %d: %w",
				ErrTooFewActive, repr, len(a.shards), a.quorum, id, s.cause)
		}
	}
	return fmt.Errorf("%w: %d of %d shards represented (quorum %d)",
		ErrTooFewActive, repr, len(a.shards), a.quorum)
}

// abort ends the run after err: live shards — parked in Recv, their current
// leg already delivered — get a structured MsgError naming the failing
// shard; everything else is closed.
func (a *aggRun) abort(err error) error {
	failed := -1
	for id, s := range a.shards {
		if s.cause != nil {
			failed = id
			break
		}
	}
	m := shardErrorMessage(failed, err)
	for _, s := range a.shards {
		if s.live {
			_ = s.conn.Send(m)
		}
	}
	a.close()
	return fmt.Errorf("protocol: aggregator: %w", err)
}

func (a *aggRun) close() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	for _, s := range a.shards {
		_ = s.conn.Close()
	}
}

// drainRejoins attaches queued checkpoint-restore rejoin attempts. Called
// at CCCP round boundaries, where len(a.hist) is the round about to start —
// the round a rejoining shard is fast-forwarded to.
func (a *aggRun) drainRejoins() {
	if a.cfg.FT.Rejoin == nil {
		return
	}
	for {
		select {
		case rj := <-a.cfg.FT.Rejoin:
			a.attach(rj)
		default:
			return
		}
	}
}

// attach validates one rejoin attempt and, on success, re-arms the shard's
// slot: new connection, new pump generation, stale counter reset, and a
// fast-forward hello reply carrying the current global state (w0 plus the
// full objective history) so the shard resumes at round len(a.hist).
func (a *aggRun) attach(rj Rejoin) {
	m := rj.Hello
	id := m.Round
	if m.Type != transport.MsgShardHello || m.Labeled != 1 {
		abortConn(rj.Conn, "rejoin must be a checkpoint-restore shard-hello")
		return
	}
	if id < 0 || id >= len(a.shards) {
		abortConn(rj.Conn, fmt.Sprintf("rejoin for unknown shard id %d", id))
		return
	}
	if a.shards[id].live {
		abortConn(rj.Conn, fmt.Sprintf("shard %d is still attached", id))
		return
	}
	if m.Dim != a.dim {
		abortConn(rj.Conn, fmt.Sprintf("rejoin dimension mismatch: shard %d has %d, want %d", id, m.Dim, a.dim))
		return
	}
	if m.Users <= 0 {
		abortConn(rj.Conn, fmt.Sprintf("rejoining shard %d serves no users", id))
		return
	}
	if len(m.V) > len(a.hist) || !sameBits(m.V, a.hist[:len(m.V)]) {
		abortConn(rj.Conn, fmt.Sprintf("shard %d restored a diverged objective history", id))
		return
	}
	reply := transport.Message{Type: transport.MsgShardHello, Users: a.globalT,
		Dim: a.dim, Config: a.wire, Round: len(a.hist),
		W: append([]float64(nil), a.w0...), V: append([]float64(nil), a.hist...)}
	if err := rj.Conn.Send(reply); err != nil {
		_ = rj.Conn.Close()
		return
	}
	s := a.shards[id]
	gone := s.stale
	s.conn = rj.Conn
	s.gen++
	s.live = true
	s.stale = 0
	a.restarts++
	a.mRestarts.Inc()
	if r := a.cfg.Core.Obs; r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordShardRestore, Shard: id, Round: len(a.hist), Stale: gone})
	}
	go a.pump(id, s.gen, rj.Conn)
}

// sameBits reports whether two float slices are bitwise identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// RunAggregator drives a sharded training run over one connection per
// shard. It owns the CCCP loop and the global ADMM consensus; the per-user
// state lives on the shards. Blocks until training finishes or fails.
func RunAggregator(conns []transport.Conn, cfg AggConfig) (*AggResult, error) {
	if len(conns) == 0 {
		return nil, ErrNoConns
	}
	sc := ServerConfig{Core: cfg.Core, Dist: cfg.Dist}.withDefaults()
	cfg.Core, cfg.Dist = sc.Core, sc.Dist
	k := len(conns)

	// Handshake: one shard-hello per connection, slotted by shard id. The
	// id set must be exactly 0..K-1 so the fold order is deterministic no
	// matter the accept order (TCP included). bail rejects the whole
	// deployment: a reasoned MsgError to shards whose hello was received
	// (those are parked in Recv, so the Send cannot block), a bare Close
	// to the rest (they may still be blocked in Send, where a counter-Send
	// on a rendezvous pipe would deadlock — Close unblocks them instead).
	seen := make([]bool, k)
	bail := func(reason string) {
		for i, c := range conns {
			if seen[i] {
				_ = c.Send(transport.Message{Type: transport.MsgError, Reason: reason})
			}
			_ = c.Close()
		}
	}
	shards := make([]transport.Conn, k)
	hellos := make([]transport.Message, k)
	for i, c := range conns {
		m, err := c.Recv()
		if err != nil {
			bail("aggregator handshake failed")
			return nil, fmt.Errorf("protocol: aggregator: hello on connection %d: %w", i, err)
		}
		seen[i] = true
		if m.Type == transport.MsgError {
			seen[i] = false // already failing; don't echo the error back
			bail(fmt.Sprintf("sibling shard aborted: %s", m.Reason))
			return nil, fmt.Errorf("%w: %s", ErrAborted, m.Reason)
		}
		if m.Type != transport.MsgShardHello {
			bail("expected shard-hello")
			return nil, fmt.Errorf("%w: got %v during aggregator handshake", ErrUnexpectedMsg, m.Type)
		}
		id := m.Round
		if id < 0 || id >= k || shards[id] != nil {
			bail(fmt.Sprintf("invalid or duplicate shard id %d (want distinct ids 0..%d)", id, k-1))
			return nil, fmt.Errorf("protocol: aggregator: invalid or duplicate shard id %d", id)
		}
		shards[id] = c
		hellos[id] = m
	}
	dim := hellos[0].Dim
	restore := hellos[0].Labeled == 1
	globalT := 0
	for id, m := range hellos {
		if m.Dim != dim || dim <= 0 {
			bail(fmt.Sprintf("dimension mismatch: shard %d has %d vs %d", id, m.Dim, dim))
			return nil, fmt.Errorf("%w: shard %d has %d vs %d", ErrDimMismatch, id, m.Dim, dim)
		}
		if (m.Labeled == 1) != restore {
			bail("mixed fresh and restoring shards")
			return nil, fmt.Errorf("protocol: aggregator: shard %d is %s while shard 0 is not",
				id, map[bool]string{true: "restoring", false: "fresh"}[m.Labeled == 1])
		}
		if m.Users <= 0 {
			bail(fmt.Sprintf("shard %d serves no users", id))
			return nil, fmt.Errorf("protocol: aggregator: shard %d serves no users", id)
		}
		globalT += m.Users
	}

	// Global starting state: the folded federated init, or the restored
	// (w0, objective history) every shard must agree on bitwise.
	var w0 mat.Vector
	var prior []float64
	if restore {
		for id := 1; id < k; id++ {
			if !sameBits(hellos[id].W, hellos[0].W) || !sameBits(hellos[id].V, hellos[0].V) {
				bail(fmt.Sprintf("shard %d restored different global state than shard 0", id))
				return nil, fmt.Errorf("protocol: aggregator: shard %d restored different global state than shard 0", id)
			}
		}
		if len(hellos[0].W) != dim {
			bail("restored w0 has wrong dimension")
			return nil, fmt.Errorf("%w: restored w0 has %d entries, dim %d", ErrDimMismatch, len(hellos[0].W), dim)
		}
		w0 = mat.Vector(hellos[0].W).Clone()
		prior = append([]float64(nil), hellos[0].V...)
	} else {
		partials := make([]shard.InitPartial, k)
		for id, m := range hellos {
			partials[id] = shard.InitPartial{Weighted: mat.Vector(m.W), Plain: mat.Vector(m.U), Weight: m.Xi}
		}
		w0 = shard.FoldInit(partials, globalT)
		if w0 == nil || len(w0) != dim {
			w0 = mat.NewVector(dim)
		}
	}

	wire := wireConfig(cfg.Core, cfg.Dist)
	for id, c := range shards {
		reply := transport.Message{Type: transport.MsgShardHello, Users: globalT, Dim: dim, Config: wire}
		if err := c.Send(reply); err != nil {
			bail("aggregator handshake failed")
			return nil, fmt.Errorf("protocol: aggregator: hello reply to shard %d: %w", id, err)
		}
	}

	a := newAggRun(cfg, shards, dim, globalT, wire, w0, prior)
	info := core.TrainInfo{}
	// A reduce that folded carried partials reports a mixed-round objective;
	// the clean-round guard skips the descent and convergence tests around it
	// so a shard outage cannot masquerade as convergence (or ascent) and end
	// training early.
	clean := func(int) bool { return !a.degraded }
	err := core.BeginRun(cfg.Core.Obs, "agg", globalT).CCCP(cfg.Core, prior, clean, &info, func(round int) (float64, int, error) {
		obj, err := a.cccpRound(round, &info)
		if err != nil {
			return 0, 0, err
		}
		a.hist = append(a.hist, obj)
		return obj, -1, nil
	})
	if err != nil {
		// Mid-run failure: abort already notified the delivered shards and
		// closed the rest; a.close is idempotent.
		a.close()
		return nil, fmt.Errorf("protocol: RunAggregator: %w", err)
	}

	// One last drain before the final broadcast: a shard that finished its
	// checkpoint restore while the last round was closing is fast-forwarded
	// to the (now final) state and receives the done like everyone else.
	a.drainRejoins()

	conv := 0
	if info.CCCPConverged {
		conv = 1
	}
	done := transport.Message{Type: transport.MsgShardDone, W0: a.w0,
		Round: info.CCCPIterations, Users: conv, Xi: info.Objective}
	for _, s := range a.shards {
		if s.live {
			_ = s.conn.Send(done) // parked in Recv awaiting the decision
		}
	}

	res := &AggResult{W0: a.w0, Info: info, Users: globalT,
		PerShard: make([]transport.Stats, k), ShardCauses: make([]error, k),
		Restarts: a.restarts}
	for id, s := range a.shards {
		st := s.prev
		if s.live {
			st = st.Add(s.conn.Stats())
		}
		res.PerShard[id] = st
		res.Total = res.Total.Add(st)
		res.ShardCauses[id] = s.cause
	}
	// Late rejoin attempts cannot be honored any more; reject them with a
	// reason instead of leaving the dialer parked in Recv.
	if cfg.FT.Rejoin != nil {
	drain:
		for {
			select {
			case rj := <-cfg.FT.Rejoin:
				abortConn(rj.Conn, "training already finished")
			default:
				break drain
			}
		}
	}
	a.close()
	return res, nil
}

// cccpRound runs one global CCCP round: attach any queued rejoins, announce
// the round to the live shards, then iterate the cross-shard ADMM reduce
// until the residual rule fires. Returns the objective L of Eq. (23).
func (a *aggRun) cccpRound(round int, info *core.TrainInfo) (float64, error) {
	a.drainRejoins()
	a.degraded = false

	// The round announcement carries the objective that closed the previous
	// round so shards can complete their histories/checkpoints. Only live
	// shards hear it; a shard rejoining later is fast-forwarded instead.
	start := transport.Message{Type: transport.MsgShardRound, Round: round}
	if n := len(a.hist); n > 0 {
		start.Xi = a.hist[n-1]
	}
	start.W0 = a.w0
	a.sendLive(start)

	fold := newConsensusFold(a.cfg.Dist, a.cfg.Core.Obs, info, a.w0)
	for iter := 0; ; iter++ {
		// Leg 1: the consensus sums in shard order — the partials a single
		// coordinator running ReduceGroups over this partition computes in
		// process. A detached shard contributes its last delivered partial
		// for up to MaxStale iterations.
		got := a.collect(iter, transport.MsgShardSum)
		var sums []mat.Vector
		workers, repr := 0, 0
		for id, s := range a.shards {
			s.fresh, s.carried = false, false
			if m, ok := got[id]; ok {
				s.fresh = true
				s.lastSum = mat.Vector(m.W0)
				s.lastUsers = m.Users
				// A positive Labeled is the shard's piggybacked health stamp
				// (code+1); fold it into the aggregator's health tree. Zero
				// means the shard runs without an engine — report nothing.
				if m.Labeled > 0 {
					a.cfg.Core.Obs.ReportHealth(fmt.Sprintf("shard:%d", id), m.Labeled-1, "shard-reported")
				}
			} else if !s.live && s.lastSum != nil && s.stale < a.cfg.FT.MaxStale {
				s.stale++
				s.carried = true
				a.degraded = true
				a.mStale.Inc()
				if r := a.cfg.Core.Obs; r.FlightEnabled() {
					r.FlightRecord(obs.Record{Kind: obs.RecordShardStale, Round: iter, Shard: id, Stale: s.stale})
				}
			} else {
				continue
			}
			sums = append(sums, s.lastSum)
			workers += s.lastUsers
			repr++
		}
		if repr < a.quorum {
			return 0, a.abort(a.quorumErr(repr))
		}
		zNew, _ := fold.reduceZ(iter, sums, workers) // the in-process fold has no failure mode
		a.sendLive(transport.Message{Type: transport.MsgShardZ, Round: iter, W0: zNew})

		// Leg 2: the primal residuals and objective partials the same way; a
		// shard lost mid-iteration falls back to its previous residual leg
		// when stale carry allows it.
		got = a.collect(iter, transport.MsgShardResid)
		var primals, objPartials []float64
		repr = 0
		for id, s := range a.shards {
			if m, ok := got[id]; ok {
				s.lastPrimal = m.Xi
				s.lastObj = m.W[0]
				s.haveResid = true
			} else if !s.live && s.haveResid && (s.carried || (s.fresh && a.cfg.FT.MaxStale > 0)) {
				a.degraded = true
				a.mStale.Inc()
			} else {
				continue
			}
			primals = append(primals, s.lastPrimal)
			objPartials = append(objPartials, s.lastObj)
			repr++
		}
		if repr < a.quorum {
			return 0, a.abort(a.quorumErr(repr))
		}
		if done, _ := fold.reduceResid(iter, primals, objPartials); done {
			a.w0 = fold.z
			return fold.obj, nil
		}
		a.sendLive(transport.Message{Type: transport.MsgShardNext, Round: iter + 1})
	}
}

// sendLive sends m to every live shard; a shard whose link fails is
// detached. Each Send borrows m's vector (a fold result or a.w0) for the call.
func (a *aggRun) sendLive(m transport.Message) {
	for id, s := range a.shards {
		if !s.live {
			continue
		}
		if err := s.conn.Send(m); err != nil {
			a.detach(id, err)
		}
	}
}

// SplitCheckpoint extracts the sub-checkpoint of the users keep selects (by
// slot index and session token), renumbering them densely in original slot
// order. Together with MergeCheckpoints and shard.Ring this is the offline
// rebalance tool: merge the shard checkpoints, then split the result by
// ring ownership into one checkpoint per new shard (see docs/SHARDING.md).
func SplitCheckpoint(ck *Checkpoint, keep func(slot int, session int64) bool) (*Checkpoint, error) {
	out := &Checkpoint{
		Epoch:     ck.Epoch,
		Dim:       ck.Dim,
		Seed:      ck.Seed,
		W0:        ck.W0.Clone(),
		Objective: append([]float64(nil), ck.Objective...),
	}
	for t := range ck.Sessions {
		if !keep(t, ck.Sessions[t]) {
			continue
		}
		out.Sessions = append(out.Sessions, ck.Sessions[t])
		out.Dropped = append(out.Dropped, ck.Dropped[t])
		out.Stale = append(out.Stale, ck.Stale[t])
		out.Us = append(out.Us, slices.Clone(ck.Us[t]))
		out.LastW = append(out.LastW, slices.Clone(ck.LastW[t]))
		out.LastV = append(out.LastV, slices.Clone(ck.LastV[t]))
		out.LastXi = append(out.LastXi, ck.LastXi[t])
	}
	if len(out.Sessions) == 0 {
		return nil, fmt.Errorf("protocol: SplitCheckpoint selected no users")
	}
	return out, nil
}

// MergeCheckpoints concatenates shard checkpoints in argument order (the
// shard-id order, so slot concatenation matches the plane's global slot
// convention). All inputs must agree on epoch, dimension, w0, and objective
// history, and session tokens must be globally unique.
func MergeCheckpoints(cks ...*Checkpoint) (*Checkpoint, error) {
	if len(cks) == 0 {
		return nil, fmt.Errorf("protocol: MergeCheckpoints of nothing")
	}
	base := cks[0]
	out := &Checkpoint{
		Epoch:     base.Epoch,
		Dim:       base.Dim,
		Seed:      base.Seed,
		W0:        base.W0.Clone(),
		Objective: append([]float64(nil), base.Objective...),
	}
	seen := make(map[int64]bool)
	for i, ck := range cks {
		if ck.Epoch != base.Epoch || ck.Dim != base.Dim {
			return nil, fmt.Errorf("protocol: MergeCheckpoints: checkpoint %d is at epoch %d/dim %d, want %d/%d",
				i, ck.Epoch, ck.Dim, base.Epoch, base.Dim)
		}
		if !sameBits(ck.W0, base.W0) || !sameBits(ck.Objective, base.Objective) {
			return nil, fmt.Errorf("protocol: MergeCheckpoints: checkpoint %d disagrees on global state", i)
		}
		for t := range ck.Sessions {
			if s := ck.Sessions[t]; s != 0 {
				if seen[s] {
					return nil, fmt.Errorf("protocol: MergeCheckpoints: duplicate session token in checkpoint %d", i)
				}
				seen[s] = true
			}
			out.Sessions = append(out.Sessions, ck.Sessions[t])
			out.Dropped = append(out.Dropped, ck.Dropped[t])
			out.Stale = append(out.Stale, ck.Stale[t])
			out.Us = append(out.Us, slices.Clone(ck.Us[t]))
			out.LastW = append(out.LastW, slices.Clone(ck.LastW[t]))
			out.LastV = append(out.LastV, slices.Clone(ck.LastV[t]))
			out.LastXi = append(out.LastXi, ck.LastXi[t])
		}
	}
	return out, nil
}
