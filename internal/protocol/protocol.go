// Package protocol implements the wire protocol of distributed PLOS
// (paper Algorithm 2) on top of internal/transport: a Client that runs on
// each user's device, keeping the raw data local and exchanging only model
// parameters, and the nodes that drive CCCP + ADMM rounds over it. There is
// one round (barrierRound, round.go) with three roles. RunServer is a root
// whose children are devices. RunShard serves its devices and ships the
// round's partials to a parent. RunAggregator is a root whose children are
// shards, remote reduce groups (shard.go).
//
// Message flow (one connection per user):
//
//	client → server  hello {dim, samples, labeled, local-init hyperplane}
//	server → client  hello {T, hyperparameters, session token}
//	per CCCP round:
//	  server → client  start-round {w0}          (device freezes CCCP signs)
//	  per ADMM iteration:
//	    server → client  params {z, u_t}
//	    client → server  update {w_t, v_t, ξ_t}
//	server → client  done {w0}
//
// The server tolerates unreliable devices in three escalating ways
// (configured by FTConfig; see docs/FAULT_TOLERANCE.md):
//
//   - Stale reuse: a device that misses the per-round deadline keeps its
//     place — the server reuses its last reported (w_t, v_t, ξ_t) for up to
//     MaxStale consecutive rounds.
//   - Session resume: the hello reply carries a session token; a device
//     whose connection died can redial, echo the token, and be re-attached
//     to its slot mid-training (RunClientLoop drives the device side).
//   - Permanent drop: a device out of stale budget (or, without resume, any
//     device whose connection fails) is removed from the consensus and
//     training continues while the active count stays at or above both
//     MinActive and ceil(Quorum·T).
//
// A child is also untrusted: a device update or a shard partial of the
// wrong shape or with a non-finite number is refused at the single point
// replies enter node state (ingest and admit, round.go) and handled as a
// failure of that connection.
package protocol

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"plos/internal/admm"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/rng"
	"plos/internal/shard"
	"plos/internal/transport"
)

// Errors returned by the server.
var (
	ErrNoConns       = errors.New("protocol: no client connections")
	ErrDimMismatch   = errors.New("protocol: clients disagree on feature dimension")
	ErrTooFewActive  = errors.New("protocol: active clients fell below minimum")
	ErrUnexpectedMsg = errors.New("protocol: unexpected message")
	ErrAborted       = errors.New("protocol: aborted by peer")
)

// Rejoin is a reconnection attempt handed to the server: an accepted
// connection whose first message was a hello carrying a session token. The
// server validates the token against its user slots at the next iteration
// boundary and either re-attaches the device or rejects the connection.
type Rejoin struct {
	Conn  transport.Conn
	Hello transport.Message
}

// FTConfig holds the fault-tolerance knobs. The zero value disables every
// mechanism and reproduces the strict fail-fast protocol bit-for-bit.
type FTConfig struct {
	// RoundTimeout bounds how long one ADMM iteration waits for device
	// replies; devices that miss it are handled by the stale-reuse policy.
	// 0 waits forever (strict lockstep).
	RoundTimeout time.Duration
	// Quorum is the fraction of the original T devices that must remain
	// active; training aborts with ErrTooFewActive below ceil(Quorum·T).
	// Combined with MinActive via max. 0 disables the fractional bound.
	Quorum float64
	// MaxStale is how many consecutive rounds a straggler's last local
	// solution may be reused before the device is dropped (default 3).
	MaxStale int
	// Resume grants disconnected devices the stale-reuse grace period and
	// accepts re-attachments from the Rejoin channel. Without it, a failed
	// connection drops the device immediately (the pre-FT behavior).
	Resume bool
	// Rejoin delivers reconnection attempts (see Rejoin); typically fed by
	// an accept loop that reads the first hello off new connections. Drained
	// at iteration boundaries under Resume, at CCCP round boundaries
	// otherwise. May be nil.
	Rejoin <-chan Rejoin
	// SessionSeed keys the session-token stream; 0 falls back to Core.Seed.
	// Tokens are generated only when Resume or checkpointing is on.
	SessionSeed int64
	// CheckpointPath, when set, makes the server atomically snapshot its
	// trainer state (w0, duals, round epoch, per-user last solutions) after
	// every CheckpointEvery-th CCCP round (default every round).
	CheckpointPath  string
	CheckpointEvery int
	// Restore, when non-nil, resumes training from a loaded checkpoint:
	// the handshake matches clients to their slots by session token and the
	// CCCP loop continues from the recorded epoch.
	Restore *Checkpoint
}

// ServerConfig configures a training run.
type ServerConfig struct {
	Core core.Config
	Dist core.DistConfig
	// MinActive is the number of live devices below which the run aborts
	// (default 1).
	MinActive int
	// FT configures the fault-tolerance layer; the zero value disables it.
	FT FTConfig
	// Async switches the server to the fully asynchronous DJAM protocol
	// mode (docs/ASYNC.md): devices push updates whenever a local solve
	// finishes and each arrival folds into w0 immediately under the
	// staleness-weighted rule, with no global ADMM round clock. The mode is
	// confirmed to each client inside the hello reply; clients that did not
	// offer it in their hello are still served (the flow they see — params
	// in, update out — is identical), but plos.Join(WithAsync()) asserts
	// the confirmation. Incompatible with ReduceGroups.
	Async bool
	// ReduceGroups partitions the user slots into ordered groups. Every
	// cross-user floating-point reduction (federated init, consensus sum,
	// primal residual, objective) has the shape of internal/shard:
	// per-group partials in the group's slot order, folded in group order.
	// A single coordinator with ReduceGroups set to a sharded deployment's
	// partition reproduces that sharded run bit for bit — the reference
	// side of the bit-identity contract in docs/SHARDING.md. Groups must
	// cover every slot exactly once. Nil (the default) is one group holding
	// every slot, which is also what a one-shard plane computes.
	ReduceGroups [][]int
}

// ServerResult is the trained model plus per-user traffic accounting.
type ServerResult struct {
	Model *core.Model // W[t] is nil for users that dropped out
	Info  core.TrainInfo
	// Dropped[t] reports whether user t's device was permanently dropped.
	Dropped []bool
	// DropCause[t] is the first fatal failure recorded for user t (non-nil
	// for dropped users; may be non-nil for users that recovered via stale
	// reuse or resume).
	DropCause []error
	// PerUser[t] is the server-side traffic on user t's connection(s);
	// Total aggregates them.
	PerUser []transport.Stats
	Total   transport.Stats
}

func wireConfig(cfg core.Config, dist core.DistConfig) *transport.WireConfig {
	return &transport.WireConfig{
		Lambda: cfg.Lambda, Cl: cfg.Cl, Cu: cfg.Cu, Epsilon: cfg.Epsilon,
		Rho:        dist.Rho,
		MaxCutIter: cfg.MaxCutIter, QPMaxIter: cfg.QPMaxIter,
		BalanceGuard: cfg.BalanceGuard, WarmWorkingSets: cfg.WarmWorkingSets,
		// Telemetry piggyback is requested only when the server has a flight
		// recorder to merge it into; a plain observer leaves the wire bytes
		// unchanged (the observer bit-identity contract).
		Telemetry: cfg.Obs.FlightEnabled(),
	}
}

func coreConfig(w *transport.WireConfig) core.Config {
	return core.Config{
		Lambda: w.Lambda, Cl: w.Cl, Cu: w.Cu, Epsilon: w.Epsilon,
		MaxCutIter: w.MaxCutIter, QPMaxIter: w.QPMaxIter,
		BalanceGuard: w.BalanceGuard, WarmWorkingSets: w.WarmWorkingSets,
	}
}

// withDefaults fills zero fields, in one place so RunServer, RunShard,
// RunAggregator and tests agree.
func (c ServerConfig) withDefaults() ServerConfig {
	c.Core = c.Core.WithDefaults()
	c.Dist = c.Dist.WithDefaults()
	if c.MinActive <= 0 {
		c.MinActive = 1
	}
	if c.FT.MaxStale <= 0 {
		c.FT.MaxStale = 3
	}
	if c.FT.CheckpointEvery <= 0 {
		c.FT.CheckpointEvery = 1
	}
	if c.FT.Quorum < 0 {
		c.FT.Quorum = 0
	} else if c.FT.Quorum > 1 {
		c.FT.Quorum = 1
	}
	if c.FT.SessionSeed == 0 {
		c.FT.SessionSeed = c.Core.Seed
	}
	return c
}

// childKind is what a node's child is. A device answers params with its own
// solution, and the node computes the rest of the iteration from it. A shard
// is a remote reduce group: it answers both legs of an iteration with its
// partition's partials. The kinds share every loop; the kind decides the
// messages, the admission case, what a carry reuses, and whether a drop is
// final (a device's is; a shard's lasts until it rejoins from a checkpoint).
type childKind uint8

const (
	deviceChild childKind = iota
	shardChild
)

var childNames = [...]string{deviceChild: "user", shardChild: "shard"}

func (k childKind) String() string { return childNames[k] }

// serverUser is a node's view of one child: a device, or a shard.
type serverUser struct {
	kind    childKind
	conn    transport.Conn
	session int64
	// dropped: out of the fold (a device for good, a shard until it rejoins).
	// detached: connection lost but still inside the stale-reuse grace
	// period. pending: an exchange goroutine owns the connection right now.
	// needSync: the child must be sent the current round's start-round (or
	// shard-round) before its next exchange. fresh: the child delivered this
	// leg of the ADMM iteration.
	dropped  bool
	detached bool
	pending  bool
	needSync bool
	fresh    bool
	// stale counts consecutive rounds served from the last solution.
	stale int
	// cause is the first fatal failure observed on this user's connections.
	cause error
	// prevStats accumulates traffic of connections replaced by a resume.
	prevStats transport.Stats
	// lastW, lastV, lastXi: the last admitted solution, in vectors the slot
	// owns (ingest copies into them).
	lastW, lastV mat.Vector
	lastXi       float64
	// dualBuf and zBuf are the params vectors launch cannot share, and out the
	// message it sends. The exchange goroutine's Send reads them: every writer
	// runs under !pending.
	dualBuf, zBuf mat.Vector
	out           transport.Message
	// A shard's last partials of each leg, in storage the slot owns (ingest
	// refills it), folded in its place while it is detached: Σ(x_t+u_t) and
	// the live count behind it; Σ‖x_t−z‖² and the objective partial. resid
	// reports that a residual leg arrived at all.
	sum         mat.Vector
	live        int
	primal, obj float64
	resid       bool
}

// stats returns the user's total server-side traffic across all of its
// connections.
func (u *serverUser) stats() transport.Stats {
	s := u.prevStats
	if u.conn != nil {
		s = s.Add(u.conn.Stats())
	}
	return s
}

// sessionToken derives the reproducible, non-zero session token of user t.
func sessionToken(seed int64, t int) int64 {
	tok := rng.New(seed).SplitN("session", t).Int63()
	if tok == 0 {
		tok = 1
	}
	return tok
}

// RunServer drives a full training run over the given client connections
// (one per user) and returns the trained model. It blocks until training
// finishes or fails. With cfg.FT.Restore set, conns must hold one connection
// per non-dropped user of the checkpoint, in any order — they are matched to
// their slots by session token.
func RunServer(conns []transport.Conn, cfg ServerConfig) (*ServerResult, error) {
	if len(conns) == 0 {
		return nil, ErrNoConns
	}
	cfg = cfg.withDefaults()
	tExpect := len(conns)
	if ck := cfg.FT.Restore; ck != nil {
		tExpect = len(ck.Sessions)
	}
	if err := validateGroups(cfg.ReduceGroups, tExpect); err != nil {
		return nil, err
	}
	if cfg.Async && cfg.ReduceGroups != nil {
		return nil, errors.New("protocol: Async is incompatible with ReduceGroups (the sharded plane is lockstep by construction)")
	}

	var st *serverState
	var prior []float64
	if ck := cfg.FT.Restore; ck != nil {
		var err error
		if st, err = restoreHandshake(conns, cfg); err != nil {
			return nil, err
		}
		prior = ck.Objective
	} else {
		var err error
		if st, err = freshHandshake(conns, cfg); err != nil {
			return nil, err
		}
	}
	info := core.TrainInfo{}
	err := core.BeginRun(cfg.Core.Obs, "server", len(st.users)).CCCP(cfg.Core, prior, nil, &info, func(round int) (float64, int, error) {
		if !cfg.Async {
			return st.rootRound(round, &info)
		}
		obj, err := st.asyncCCCPRound(round, &info)
		if err != nil {
			return 0, 0, err
		}
		return obj, -1, st.completeRound(round, obj)
	})
	if err != nil {
		st.abort(err)
		return nil, fmt.Errorf("protocol: RunServer: %w", err)
	}

	// Finish: broadcast the final w0. In asynchronous mode the exchanges
	// still in flight are drained first so every connection is idle and
	// actually receives the done (broadcast skips pending conns).
	if cfg.Async {
		st.asyncDrain()
	}
	st.broadcast(transport.Message{Type: transport.MsgDone, W0: st.w0})
	return st.result(info), nil
}

// collectHellos reads one hello per user and validates the shared feature
// dimension, returning it with the users' federated-init contributions in
// slot order.
func collectHellos(users []*serverUser) (dim int, initWs []mat.Vector, initWeights []float64, err error) {
	dim = -1
	initWs = make([]mat.Vector, 0, len(users))
	initWeights = make([]float64, 0, len(users))
	for t, u := range users {
		m, err := u.conn.Recv()
		if err != nil {
			return 0, nil, nil, fmt.Errorf("protocol: hello from user %d: %w", t, err)
		}
		if m.Type != transport.MsgHello {
			return 0, nil, nil, fmt.Errorf("%w: got %v during handshake", ErrUnexpectedMsg, m.Type)
		}
		if err := admitHello(m); err != nil {
			abortUsers(users, fmt.Sprintf("user %d: %v", t, err))
			return 0, nil, nil, fmt.Errorf("protocol: hello from user %d: %w", t, err)
		}
		if dim == -1 {
			dim = m.Dim
		} else if m.Dim != dim {
			abortUsers(users, fmt.Sprintf("dimension mismatch: %d vs %d", m.Dim, dim))
			return 0, nil, nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, m.Dim, dim)
		}
		initWs = append(initWs, mat.Vector(m.W))
		initWeights = append(initWeights, float64(m.Labeled))
	}
	return dim, initWs, initWeights, nil
}

// sendHelloReplies answers a fresh handshake: the population size T the
// devices size their solvers with (the global count on a shard), the
// hyperparameters, and — when needed — freshly minted session tokens.
func sendHelloReplies(users []*serverUser, total, dim int, wire *transport.WireConfig, needSessions bool, sessionSeed int64, async bool) error {
	for t, u := range users {
		reply := transport.Message{Type: transport.MsgHello, Users: total, Dim: dim, Config: wire}
		if async {
			// Confirm asynchronous mode in the reply's otherwise-unused
			// Samples field; sync replies keep it zero (byte-identical wire).
			reply.Samples = asyncHello
		}
		if needSessions {
			u.session = sessionToken(sessionSeed, t)
			reply.Session = u.session
		}
		if err := u.conn.Send(reply); err != nil {
			return fmt.Errorf("protocol: hello reply to user %d: %w", t, err)
		}
	}
	return nil
}

// freshHandshake gathers hellos, validates dimensions, aggregates the
// federated initialization, and replies with T, hyperparameters, and (when
// the fault-tolerance layer needs them) session tokens.
func freshHandshake(conns []transport.Conn, cfg ServerConfig) (*serverState, error) {
	tCount := len(conns)
	users := make([]*serverUser, tCount)
	for t, c := range conns {
		users[t] = &serverUser{conn: c}
	}
	needSessions := cfg.FT.Resume || cfg.FT.CheckpointPath != ""

	dim, initWs, initWeights, err := collectHellos(users)
	if err != nil {
		return nil, err
	}
	if err := sendHelloReplies(users, tCount, dim, wireConfig(cfg.Core, cfg.Dist),
		needSessions, cfg.FT.SessionSeed, cfg.Async); err != nil {
		return nil, err
	}
	st := newServerState(cfg, users, dim, nil)
	st.w0 = federatedInit(st.groups, initWs, initWeights, dim)
	if st.w0 == nil || len(st.w0) != dim {
		st.w0 = mat.NewVector(dim)
	}
	return st, nil
}

// federatedInit aggregates the device init contributions with the grouped
// fold shape of the sharded plane: one partial per group, folded in group
// order (the aggregator folds the partials its shards' hellos carry).
func federatedInit(groups [][]int, initWs []mat.Vector, initWeights []float64, dim int) mat.Vector {
	partials := make([]shard.InitPartial, len(groups))
	for g, slots := range groups {
		ws := make([]mat.Vector, 0, len(slots))
		weights := make([]float64, 0, len(slots))
		for _, t := range slots {
			ws = append(ws, initWs[t])
			weights = append(weights, initWeights[t])
		}
		partials[g] = shard.NewInitPartial(ws, weights, dim)
	}
	return shard.FoldInit(partials, len(initWs))
}

// matchRestoreConns rebuilds the per-user slots of a checkpoint and claims
// each live slot with exactly one connection whose hello echoes that slot's
// session token. No replies are sent yet — a shard must first learn the
// global T from its aggregator.
func matchRestoreConns(conns []transport.Conn, ck *Checkpoint) ([]*serverUser, error) {
	if err := ck.validateForRestore(); err != nil {
		return nil, err
	}
	tCount := len(ck.Sessions)
	users := make([]*serverUser, tCount)
	bySession := make(map[int64]int, tCount)
	live := 0
	for t := range users {
		users[t] = &serverUser{
			session: ck.Sessions[t],
			dropped: ck.Dropped[t],
			stale:   ck.Stale[t],
			lastW:   slices.Clone(ck.LastW[t]), // ingest refills them in place
			lastV:   slices.Clone(ck.LastV[t]),
			lastXi:  ck.LastXi[t],
		}
		if !ck.Dropped[t] {
			bySession[ck.Sessions[t]] = t
			live++
		}
	}
	if len(conns) != live {
		return nil, fmt.Errorf("protocol: restore: checkpoint has %d live users, got %d connections", live, len(conns))
	}
	for i, c := range conns {
		m, err := c.Recv()
		if err != nil {
			return nil, fmt.Errorf("protocol: restore hello on connection %d: %w", i, err)
		}
		if m.Type != transport.MsgHello {
			return nil, fmt.Errorf("%w: got %v during restore handshake", ErrUnexpectedMsg, m.Type)
		}
		t, ok := bySession[m.Session]
		if !ok {
			abortConn(c, "unknown or duplicate session token")
			return nil, fmt.Errorf("protocol: restore: connection %d presented unknown session token", i)
		}
		if m.Dim != ck.Dim {
			abortConn(c, fmt.Sprintf("dimension mismatch: %d vs checkpoint %d", m.Dim, ck.Dim))
			return nil, fmt.Errorf("%w: %d vs checkpoint %d", ErrDimMismatch, m.Dim, ck.Dim)
		}
		delete(bySession, m.Session) // each token claims exactly one slot
		users[t].conn = c
	}
	return users, nil
}

// sendRestoreReplies answers a restore handshake: the reply carries the
// recorded epoch so clients know which round they are rejoining.
func sendRestoreReplies(users []*serverUser, total, dim, epoch int, wire *transport.WireConfig, async bool) error {
	for t, u := range users {
		if u.dropped {
			continue
		}
		reply := transport.Message{Type: transport.MsgHello, Users: total, Dim: dim,
			Round: epoch, Session: u.session, Config: wire}
		if async {
			reply.Samples = asyncHello
		}
		if err := u.conn.Send(reply); err != nil {
			return fmt.Errorf("protocol: restore hello reply to user %d: %w", t, err)
		}
	}
	return nil
}

// stateFromCheckpoint builds the trainer state of a restored run: the
// checkpoint's w0, objective history, and per-user duals, with the token
// stream continuing from the checkpoint's seed so re-saved checkpoints keep
// the same identities.
func stateFromCheckpoint(cfg ServerConfig, users []*serverUser, ck *Checkpoint) *serverState {
	cfg.FT.SessionSeed = ck.Seed
	st := newServerState(cfg, users, ck.Dim, ck.W0.Clone())
	st.objHistory = append([]float64(nil), ck.Objective...)
	for t, u := range ck.Us {
		if u != nil {
			st.us[t] = u
		}
	}
	return st
}

// restoreHandshake rebuilds the server state from a checkpoint: every
// non-dropped slot of the checkpoint must be claimed by exactly one
// connection whose hello echoes that slot's session token. The reply carries
// the recorded epoch so clients know which round they are rejoining.
func restoreHandshake(conns []transport.Conn, cfg ServerConfig) (*serverState, error) {
	ck := cfg.FT.Restore
	users, err := matchRestoreConns(conns, ck)
	if err != nil {
		return nil, err
	}
	if err := sendRestoreReplies(users, len(users), ck.Dim, ck.Epoch,
		wireConfig(cfg.Core, cfg.Dist), cfg.Async); err != nil {
		return nil, err
	}
	return stateFromCheckpoint(cfg, users, ck), nil
}

// exchangeReply is one exchange goroutine's report back to the round loop:
// the reply to a message that asked for want.
type exchangeReply struct {
	user int
	iter int
	conn transport.Conn
	want transport.MsgType
	msg  transport.Message
	err  error
}

// serverState carries the consensus across CCCP rounds.
type serverState struct {
	cfg   ServerConfig
	users []*serverUser
	dim   int
	w0    mat.Vector
	// us holds the scaled duals of the *active* users by slot, updated in
	// place every ADMM iteration and persisted across CCCP rounds
	// (consistent with ADMM warm-starting).
	us map[int]mat.Vector
	// groups is the reduce partition of the user slots: cfg.ReduceGroups,
	// or one group holding every slot.
	groups [][]int
	// lambdaOverT is λ/T over the *global* population — the objective-partial
	// weight a shard, its siblings and the reference coordinator agree on.
	// globalT is that T on the aggregator, which its shard hellos announce.
	lambdaOverT float64
	globalT     int
	// epoch is the CCCP round currently in progress (for resume replies) and
	// roundW0 its linearization point, sent as start-round to devices
	// flagged needSync.
	epoch   int
	roundW0 mat.Vector
	// clock is the origin of the device arrival offsets in telemetry
	// records: the barrier iteration's start, or the asynchronous round's.
	clock time.Time
	// objHistory is the objective after each completed round (prior rounds
	// included on restore); snapshot into checkpoints.
	objHistory []float64
	// replies receives exchange outcomes; buffered to len(users) so a late
	// goroutine never blocks (at most one exchange is in flight per user).
	replies chan exchangeReply
	// asyncEpoch[t] is the fold epoch at user t's last snapshot launch —
	// the baseline for measuring an asynchronous arrival's staleness.
	asyncEpoch []int
	// fold is the asynchronous mode's consensus state, one for the session:
	// made by the first CCCP round, restarted by every later one.
	fold *admm.AsyncFold
	// degraded: the round in flight folded carried state, so its objective
	// mixes iterations (the aggregator's clean-round guard reads it).
	// restarts counts rejoins attached.
	degraded bool
	restarts int

	// Round scratch, filled by the first iteration and refilled by every one
	// after it (sumPartials, applyZ, objectivePartials); nothing in it is
	// ever put in a message. xs[t] is user t's x_t = w_t − v_t; gxs and gus
	// are the survivors' (x_t, u_t) by live reduce group, the first
	// len(sums) of them in use; sums, primals and objs are those groups'
	// partials.
	xs            []mat.Vector
	gxs, gus      [][]mat.Vector
	sums          []mat.Vector
	primals, objs []float64

	mStale, mReconnects, mDropped, mCheckpoints, mDropCause *obs.Counter
}

func newServerState(cfg ServerConfig, users []*serverUser, dim int, w0 mat.Vector) *serverState {
	r := cfg.Core.Obs
	st := &serverState{
		cfg: cfg, users: users, dim: dim, w0: w0,
		us:          make(map[int]mat.Vector),
		groups:      cfg.ReduceGroups, // pre-validated by validateGroups
		lambdaOverT: cfg.Core.Lambda / float64(len(users)),
		asyncEpoch:  make([]int, len(users)),
		xs:          make([]mat.Vector, len(users)),
		replies:     make(chan exchangeReply, len(users)),
	}
	if st.remote() {
		// Over shards a carry and a rejoin count on the shard tier's metrics;
		// no device is dropped and no checkpoint written here.
		st.mStale = r.Counter(obs.MetricShardStaleReduces, "")
		st.mReconnects = r.Counter(obs.MetricShardRestarts, "")
	} else {
		st.mStale = r.Counter(obs.MetricProtocolStaleReuses, "")
		st.mReconnects = r.Counter(obs.MetricProtocolReconnects, "")
		st.mDropped = r.Counter(obs.MetricProtocolDroppedDevices, "")
		st.mCheckpoints = r.Counter(obs.MetricCheckpointsWritten, "")
		st.mDropCause = r.Counter(obs.MetricProtocolDeviceDrops, "")
	}
	if st.groups == nil {
		all := make([]int, len(users))
		for t := range all {
			all[t] = t
		}
		st.groups = [][]int{all}
	}
	return st
}

// validateGroups checks that groups (when set) cover every one of total user
// slots exactly once — the precondition of every grouped reduction.
func validateGroups(groups [][]int, total int) error {
	if groups == nil {
		return nil
	}
	seen := make([]int, total)
	for i := range seen {
		seen[i] = -1
	}
	for g, slots := range groups {
		for _, t := range slots {
			if t < 0 || t >= total {
				return fmt.Errorf("protocol: ReduceGroups group %d references slot %d outside [0,%d)", g, t, total)
			}
			if seen[t] != -1 {
				return fmt.Errorf("protocol: ReduceGroups slot %d appears in groups %d and %d", t, seen[t], g)
			}
			seen[t] = g
		}
	}
	for t, g := range seen {
		if g == -1 {
			return fmt.Errorf("protocol: ReduceGroups assigns slot %d to no group", t)
		}
	}
	return nil
}

// flight returns the observer registry when it has a flight recorder
// attached, nil otherwise — so call sites read like the nil-safe Obs checks.
func (st *serverState) flight() *obs.Registry {
	if r := st.cfg.Core.Obs; r.FlightEnabled() {
		return r
	}
	return nil
}

// remote reports whether this node's children are shards: reduce groups
// whose partials arrive over the wire.
func (st *serverState) remote() bool {
	return len(st.users) > 0 && st.users[0].kind == shardChild
}

func (st *serverState) active() []int {
	var idx []int
	for t, u := range st.users {
		if !u.dropped {
			idx = append(idx, t)
		}
	}
	return idx
}

// minActive is the permanent-drop abort threshold: the configured MinActive
// floor or the quorum fraction of the original device count, whichever is
// larger.
func (st *serverState) minActive() int {
	min := st.cfg.MinActive
	if q := st.cfg.FT.Quorum; q > 0 {
		if qn := int(math.Ceil(q * float64(len(st.users)))); qn > min {
			min = qn
		}
	}
	return min
}

// checkpoint snapshots the trainer state after `epoch` completed rounds.
func (st *serverState) checkpoint(epoch int) *Checkpoint {
	tCount := len(st.users)
	ck := &Checkpoint{
		Epoch:     epoch,
		Dim:       st.dim,
		Seed:      st.cfg.FT.SessionSeed,
		W0:        st.w0.Clone(),
		Objective: append([]float64(nil), st.objHistory...),
		Sessions:  make([]int64, tCount),
		Dropped:   make([]bool, tCount),
		Stale:     make([]int, tCount),
		Us:        make([]mat.Vector, tCount),
		LastW:     make([]mat.Vector, tCount),
		LastV:     make([]mat.Vector, tCount),
		LastXi:    make([]float64, tCount),
	}
	for t, u := range st.users {
		sess := u.session
		if sess == 0 {
			sess = sessionToken(st.cfg.FT.SessionSeed, t)
		}
		ck.Sessions[t] = sess
		ck.Dropped[t] = u.dropped
		ck.Stale[t] = u.stale
		if d, ok := st.us[t]; ok {
			ck.Us[t] = d.Clone()
		}
		if u.lastW != nil {
			ck.LastW[t] = u.lastW.Clone()
		}
		if u.lastV != nil {
			ck.LastV[t] = u.lastV.Clone()
		}
		ck.LastXi[t] = u.lastXi
	}
	return ck
}

// noteConnFailure records a connection failure for child t: the connection
// is closed (satisfying the no-leak invariant, and unblocking the child), its
// traffic folded into the child's total, and the child marked detached. conn
// identifies which connection failed — a report about a connection that was
// already replaced by a rejoin is ignored. A device's first cause is its
// device-drop record; every shard detach is a shard-down (a rejoined shard
// may fail again).
func (st *serverState) noteConnFailure(t int, conn transport.Conn, err error) {
	u := st.users[t]
	if u.conn != conn || conn == nil {
		return
	}
	u.prevStats = u.prevStats.Add(u.conn.Stats())
	_ = u.conn.Close()
	u.conn = nil
	u.detached = true
	first := u.cause == nil
	if first {
		u.cause = err
		st.mDropCause.Inc()
	}
	switch fr := st.flight(); {
	case fr == nil:
	case u.kind == shardChild:
		fr.FlightRecord(obs.Record{Kind: obs.RecordShardDown, Shard: t, Cause: err.Error()})
	case first:
		fr.FlightRecord(obs.Record{Kind: obs.RecordDeviceDrop, User: t,
			Cause: err.Error(), Permanent: false})
	}
}

// drop removes child t (and a device's dual) from the fold: for good for a
// device, until it rejoins for a shard. Returns ErrTooFewActive when the
// survivors fall below the quorum threshold.
func (st *serverState) drop(t int, cause error) error {
	u := st.users[t]
	if u.dropped {
		return nil
	}
	u.dropped = true
	u.detached = false
	if u.cause == nil {
		u.cause = cause
		st.mDropCause.Inc()
	}
	if u.conn != nil {
		u.prevStats = u.prevStats.Add(u.conn.Stats())
		_ = u.conn.Close() // also unblocks a pending exchange goroutine
		u.conn = nil
	}
	delete(st.us, t)
	st.mDropped.Inc()
	// A shard's detach already put its shard-down on the stream.
	if fr := st.flight(); fr != nil && u.kind == deviceChild {
		causeStr := ""
		if u.cause != nil {
			causeStr = u.cause.Error()
		}
		fr.FlightRecord(obs.Record{Kind: obs.RecordDeviceDrop, User: t,
			Cause: causeStr, Permanent: true})
	}
	if n := len(st.active()); n < st.minActive() {
		if fr := st.flight(); fr != nil {
			fr.FlightRecord(obs.Record{Kind: obs.RecordQuorum, Active: n, Need: st.minActive()})
		}
		return fmt.Errorf("%w: %d < %d (last failure: %v %d: %v)",
			ErrTooFewActive, n, st.minActive(), u.kind, t, u.cause)
	}
	return nil
}

// drainRejoins attaches any queued reconnections. Called at round and
// iteration boundaries (see FTConfig.Rejoin), never mid-exchange.
func (st *serverState) drainRejoins() {
	if st.cfg.FT.Rejoin == nil {
		return
	}
	for {
		select {
		case rj := <-st.cfg.FT.Rejoin:
			st.attach(rj)
		default:
			return
		}
	}
}

// attach validates one rejoin attempt and swaps its connection into the
// slot it claims, answering with the reply that re-admits it.
func (st *serverState) attach(rj Rejoin) {
	if rj.Conn == nil {
		return
	}
	t, reply, reason := st.rejoinSlot(rj.Hello)
	if reason != "" {
		abortConn(rj.Conn, reason)
		return
	}
	u := st.users[t]
	if old := u.conn; old != nil {
		// The server may not have noticed the failure the client redialed
		// over; retire the old connection (unblocking any pending exchange).
		u.prevStats = u.prevStats.Add(old.Stats())
		_ = old.Close()
	}
	if err := rj.Conn.Send(reply); err != nil {
		_ = rj.Conn.Close()
		u.conn = nil
		u.detached = true
		return
	}
	u.conn = rj.Conn
	u.detached = false
	u.needSync = true
	st.restarts++
	st.mReconnects.Inc()
	if u.kind == shardChild {
		// Back in the fold, with a fresh stale budget.
		if fr := st.flight(); fr != nil {
			fr.FlightRecord(obs.Record{Kind: obs.RecordShardRestore, Shard: t, Round: len(st.objHistory), Stale: u.stale})
		}
		u.dropped, u.stale = false, 0
	}
}

// rejoinSlot finds the slot a rejoin hello claims and builds the reply that
// re-admits it, or says why it is refused. A device's hello must echo the
// session token of a slot still in the run. A shard's must be a
// checkpoint-restore shard-hello for a detached slot, with this run's
// dimension and a bitwise prefix of its objective history; the reply
// fast-forwards the shard to the round about to start (w0 and the whole
// history).
func (st *serverState) rejoinSlot(m transport.Message) (slot int, reply transport.Message, reason string) {
	wire := wireConfig(st.cfg.Core, st.cfg.Dist)
	if id := m.Round; st.remote() {
		switch {
		case m.Type != transport.MsgShardHello || m.Labeled != 1:
			return 0, reply, "rejoin must be a checkpoint-restore shard-hello"
		case id < 0 || id >= len(st.users):
			return 0, reply, fmt.Sprintf("rejoin for unknown shard id %d", id)
		case st.users[id].conn != nil:
			return 0, reply, fmt.Sprintf("shard %d is still attached", id)
		case m.Dim != st.dim:
			return 0, reply, fmt.Sprintf("rejoin dimension mismatch: shard %d has %d, want %d", id, m.Dim, st.dim)
		case m.Users <= 0:
			return 0, reply, fmt.Sprintf("rejoining shard %d serves no users", id)
		case len(m.V) > len(st.objHistory) || !sameBits(m.V, st.objHistory[:len(m.V)]):
			return 0, reply, fmt.Sprintf("shard %d restored a diverged objective history", id)
		}
		return id, transport.Message{Type: transport.MsgShardHello, Users: st.globalT, Dim: st.dim,
			Config: wire, Round: len(st.objHistory), W: st.w0, V: st.objHistory}, ""
	}
	for t, u := range st.users {
		if m.Session != 0 && m.Type == transport.MsgHello && u.session == m.Session && !u.dropped {
			if m.Dim != st.dim {
				return 0, reply, fmt.Sprintf("dimension mismatch: %d vs %d", m.Dim, st.dim)
			}
			reply = transport.Message{Type: transport.MsgHello, Users: len(st.users), Dim: st.dim,
				Round: st.epoch, Session: u.session, Config: wire}
			if st.cfg.Async {
				reply.Samples = asyncHello
			}
			return t, reply, ""
		}
	}
	return 0, reply, "unknown session token"
}

// broadcast sends m to all active users with an idle connection.
func (st *serverState) broadcast(m transport.Message) {
	for _, t := range st.active() {
		u := st.users[t]
		if u.conn == nil || u.pending {
			continue // a pending exchange owns the connection
		}
		if err := u.conn.Send(m); err != nil {
			st.noteConnFailure(t, u.conn, err)
			if !st.cfg.FT.Resume {
				// Without resume there is no way back: record the drop
				// (quorum no longer matters — broadcast only carries the
				// final done).
				u.dropped = true
				u.detached = false
				st.mDropped.Inc()
			}
		}
	}
}

// abort tells every reachable child the run failed with err. A shard's
// error is structured: it names the first shard with a recorded failure.
func (st *serverState) abort(err error) {
	m := transport.Message{Type: transport.MsgError, Reason: err.Error()}
	if st.remote() {
		failed := -1
		for t, u := range st.users {
			if u.cause != nil {
				failed = t
				break
			}
		}
		m = shardErrorMessage(failed, err)
	}
	for _, t := range st.active() {
		if u := st.users[t]; u.conn != nil && !u.pending {
			_ = u.conn.Send(m)
		}
	}
}

// exchange runs one exchange with a child on its own goroutine: optionally
// the round's start-round, then out, then the reply, which admit checks
// against want. It owns conn for its whole duration and reports exactly once
// on st.replies.
func (st *serverState) exchange(t, iter int, conn transport.Conn, start, out *transport.Message, want transport.MsgType) {
	r := exchangeReply{user: t, iter: iter, conn: conn, want: want}
	if start != nil {
		r.err = conn.Send(*start)
	}
	if r.err == nil {
		r.err = conn.Send(*out)
	}
	if r.err == nil {
		r.msg, r.err = conn.Recv()
	}
	st.replies <- r
}

// abortUsers tells every user with a live connection the run failed
// (handshake-time variant of serverState.abort).
func abortUsers(users []*serverUser, reason string) {
	for _, u := range users {
		if !u.dropped && u.conn != nil {
			_ = u.conn.Send(transport.Message{Type: transport.MsgError, Reason: reason})
		}
	}
}

// abortConn rejects a single connection with a reason and closes it.
func abortConn(c transport.Conn, reason string) {
	_ = c.Send(transport.Message{Type: transport.MsgError, Reason: reason})
	_ = c.Close()
}
