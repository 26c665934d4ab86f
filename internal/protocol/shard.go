// The sharded serving plane (docs/SHARDING.md). RunShard serves its devices
// like RunServer, but its reducer ships the round's partials to the
// aggregator instead of folding them. RunAggregator runs the same
// barrierRound (round.go) with the shards as its children: each is a remote
// reduce group whose partials arrive over the wire, one leg per exchange
// (shard-round or shard-next → shard-sum, shard-z → shard-resid), through the
// same admit. It folds them with the consensusFold a single coordinator runs
// over its ReduceGroups, so the planes are bit-identical by construction.
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
// Rendezvous safety: on a pipe, two ends that Send to each other at once
// deadlock. The link alternates strictly. The aggregator opens each exchange
// with one Send and Recvs on the same goroutine (exchange). A shard Sends
// only in answer: a leg partial, or the MsgError of a local failure, which
// can only happen between a leg's opener and the answer, so it meets an
// exchange parked in Recv. The aggregator's other Sends (hello and rejoin
// replies, abort, shard-done) go only to shards that have answered all they
// were sent; one that has not was detached, and the close unblocks it. After
// its last message the aggregator closes every link, so a shard failing after
// shard-done Sends into a closed link.
//
// Failure policy (docs/FAULT_TOLERANCE.md): before the round loop both sides
// abort with MsgError. Mid-run a shard that errors, misses
// AggFTConfig.ReduceTimeout (the gather deadline of each leg), or loses its
// link is detached: its connection is closed, and its last partials are
// folded for up to MaxStale iterations. The run continues while at least
// ShardQuorum shards stay in the fold. A detached shard recovers by
// restarting from its checkpoint and re-running the restore handshake
// through AggFTConfig.Rejoin; at the next round boundary the aggregator
// fast-forwards it to the current round. The zero AggFTConfig reproduces
// the strict plane: no deadline, no stale carry, and any shard failure
// aborts globally.
package protocol

import (
	"errors"
	"fmt"
	"math"
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
	// FT.Restore resumes this shard from its own checkpoint, the same
	// partition it saved; the aggregator validates that all shards restore
	// the same epoch and global state.
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
	// ErrTooFewActive naming the last shard to fail. <= 0 requires all
	// shards (strict).
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
		// stream, so no two devices of the plane share a token even though
		// every shard runs on the plane's one seed.
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
		dim = ck.Dim
		// Labeled 1 flags a restore hello; the aggregator validates that
		// every shard restores the same epoch, w0, and objective history.
		// Every live user of the checkpoint claimed one of conns.
		hello = transport.Message{Type: transport.MsgShardHello, Round: cfg.Shard,
			Dim: dim, Users: len(users), Samples: len(conns), Labeled: 1,
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
	} else {
		needSessions := sCfg.FT.Resume || sCfg.FT.CheckpointPath != ""
		if err := sendHelloReplies(users, rep.Users, dim, &wire, needSessions, sCfg.FT.SessionSeed, false); err != nil {
			abortUsers(users, "shard handshake failed")
			_ = agg.Close()
			return nil, err
		}
		st = newServerState(sCfg, users, dim, mat.NewVector(dim))
	}

	defer st.stopLinks()
	r := cfg.Core.Obs
	r.Gauge(obs.MetricShardDevices, "").Set(float64(st.count(inFold)))
	if sCfg.FT.Restore != nil {
		r.Counter(obs.MetricShardMigrations, "").Add(int64(len(conns)))
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
		st.abort(err)
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
// aggregator as a structured MsgError first — they happen while the
// aggregator's exchange for this leg is parked in Recv (or after it closed
// the link), so the Send cannot deadlock a rendezvous pipe — then the link is
// closed. Failures that arrived *from* the aggregator
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

// newAggState is the aggregator's node: a root whose children are the shards
// behind conns, each its own reduce group in shard-id order, under the shard
// tier's envelope. The reduce deadline is the gather deadline, the quorum is
// the node's MinActive, and rejoins are drained at round boundaries only (no
// Resume).
func newAggState(cfg AggConfig, conns []transport.Conn, dim, globalT int, w0 mat.Vector, prior []float64) *serverState {
	k := len(conns)
	quorum := cfg.FT.ShardQuorum
	if quorum <= 0 || quorum > k {
		quorum = k
	}
	users := make([]*serverUser, k)
	groups := make([][]int, k)
	for id, c := range conns {
		users[id] = &serverUser{kind: shardChild, conn: c}
		groups[id] = []int{id}
	}
	st := newServerState(ServerConfig{Core: cfg.Core, Dist: cfg.Dist, MinActive: quorum, ReduceGroups: groups,
		FT: FTConfig{RoundTimeout: cfg.FT.ReduceTimeout, MaxStale: cfg.FT.MaxStale, Rejoin: cfg.FT.Rejoin}},
		users, dim, w0)
	st.objHistory, st.globalT = prior, globalT
	return st
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
		if err := admitHello(m); err != nil {
			bail(fmt.Sprintf("shard %d: %v", id, err))
			return nil, fmt.Errorf("protocol: aggregator: shard %d: %w", id, err)
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

	st := newAggState(cfg, shards, dim, globalT, w0, prior)
	defer func() {
		for _, u := range st.users {
			if u.conn != nil {
				u.retire()
			}
		}
	}()
	info := core.TrainInfo{}
	// A round that folded carried partials reports a mixed-round objective;
	// the clean-round guard skips the descent and convergence tests around it
	// so a shard outage cannot masquerade as convergence (or ascent) and end
	// training early.
	clean := func(int) bool { return !st.degraded }
	err := core.BeginRun(cfg.Core.Obs, "agg", globalT).CCCP(cfg.Core, prior, clean, &info,
		func(round int) (float64, int, error) { return st.rootRound(round, &info) })
	if err != nil {
		st.abort(err)
		return nil, fmt.Errorf("protocol: RunAggregator: %w", err)
	}

	// One last drain before the final broadcast: a shard that finished its
	// checkpoint restore while the last round was closing is fast-forwarded
	// to the (now final) state and receives the done like everyone else.
	st.drainRejoins()
	conv := 0
	if info.CCCPConverged {
		conv = 1
	}
	st.broadcast(transport.Message{Type: transport.MsgShardDone, W0: st.w0,
		Round: info.CCCPIterations, Users: conv, Xi: info.Objective})

	res := &AggResult{W0: st.w0, Info: info, Users: globalT,
		PerShard: make([]transport.Stats, k), ShardCauses: make([]error, k),
		Restarts: st.restarts}
	for id, u := range st.users {
		res.PerShard[id] = u.stats()
		res.Total = res.Total.Add(res.PerShard[id])
		res.ShardCauses[id] = u.cause
	}
	return res, nil
}
