package protocol

import (
	"errors"
	"fmt"
	"time"

	"plos/internal/core"
	"plos/internal/cost"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/rng"
	"plos/internal/transport"
)

// ClientResult is what a device ends up with after training: the shared
// hyperplane and its own personalized one, plus its traffic accounting.
type ClientResult struct {
	W0 mat.Vector
	W  mat.Vector
	// Session is the server-issued resume token (0 when the server runs
	// without the fault-tolerance layer).
	Session int64
	// Traffic aggregates the device's transport stats across every
	// connection it used (redials included).
	Traffic transport.Stats
}

// ClientOptions tweak device behavior. Hyperparameters arrive from the
// server, so the zero value is the normal deployment.
type ClientOptions struct {
	// Seed drives the device-local SVM initialization and the redial
	// backoff jitter.
	Seed int64
	// Session, when non-zero, is echoed in the hello so the server can
	// re-attach the device to its slot (resume after disconnect or
	// checkpoint restore).
	Session int64
	// OnSession is called whenever the server issues or changes the
	// device's session token — persist it to survive a device crash.
	OnSession func(token int64)
	// MaxRedials bounds how many times RunClientLoop redials after a
	// connection failure (0 means never redial).
	MaxRedials int
	// RedialDelay is the base backoff between redials (default 50ms,
	// doubling per attempt, capped at 2s, ±20% seeded jitter).
	RedialDelay time.Duration
	// Sleep replaces time.Sleep between redials (tests).
	Sleep func(time.Duration)
	// Obs receives the device's local observations (solver metrics and
	// cut-round records). Nil disables, as everywhere.
	Obs *obs.Registry
	// Async offers asynchronous DJAM mode in the hello (the otherwise-unused
	// Users field; see docs/ASYNC.md) and fails the handshake unless the
	// server confirms it — a device expecting push-whenever semantics must
	// not silently train lockstep. The device's message flow is identical in
	// both modes, so this is an assertion, not a behavior switch.
	Async bool
}

// connError marks failures of the connection itself — the only class of
// failure a redial can fix. Protocol violations, server aborts, and local
// solver errors are returned bare and treated as fatal.
type connError struct{ err error }

func (e *connError) Error() string { return e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

func connFail(format string, args ...any) error {
	return &connError{err: fmt.Errorf(format, args...)}
}

// clientState is the device state that must survive a reconnect: the worker
// (with its CCCP-frozen signs), the session token, which round's signs are
// frozen, and traffic from dead connections.
type clientState struct {
	data  core.UserData
	opts  ClientOptions
	initW mat.Vector
	// initLabeled is the Labeled count reported in hellos (0 when the
	// local init carries no weight; see LocalInit).
	initLabeled int
	worker      *core.Worker
	rho         float64
	session     int64
	// frozenEpoch is the CCCP round whose signs the worker currently has
	// frozen, or -1 before the first start-round. On resume, a start-round
	// for the same epoch skips the refresh so the linearization point is
	// preserved.
	frozenEpoch int
	traffic     transport.Stats
	// telemetry mirrors the server hello's WireConfig.Telemetry: when set,
	// every update piggybacks a WireTelemetry block. solveTotal accumulates
	// local solve wall time across the run (the compute-energy input).
	telemetry  bool
	solveTotal time.Duration
	// replyWithin, when positive, bounds the wait for a hello reply; set on
	// redials: a device resuming into a session that ended while it was away
	// must not wait for an answer forever.
	replyWithin time.Duration
}

// resumeReplyTimeout bounds a redial's hello reply: the server answers a
// rejoin at its next iteration boundary, well inside it.
const resumeReplyTimeout = 30 * time.Second

func newClientState(data core.UserData, opts ClientOptions) (*clientState, error) {
	if data.X == nil || data.X.Rows == 0 {
		return nil, core.ErrEmptyUser
	}
	initW, initWeight := core.LocalInit(data, core.Config{Seed: opts.Seed})
	st := &clientState{
		data:        data,
		opts:        opts,
		initW:       initW,
		initLabeled: data.NumLabeled(),
		session:     opts.Session,
		frozenEpoch: -1,
	}
	// The server weights init hyperplanes by the hello's Labeled field;
	// LocalInit returns weight == labeled count exactly when a local SVM
	// trained, so a single-class user reports 0 to stay out of the
	// weighted average.
	if initWeight == 0 {
		st.initLabeled = 0
	}
	return st, nil
}

// run executes the protocol over one connection, folding its traffic into
// st.traffic even on failure. Connection-level failures come back wrapped
// in connError so RunClientLoop knows a redial may help.
func (st *clientState) run(conn transport.Conn) (res *ClientResult, err error) {
	defer func() { st.traffic = st.traffic.Add(conn.Stats()) }()

	hello := transport.Message{
		Type:    transport.MsgHello,
		Dim:     st.data.X.Cols,
		Samples: st.data.NumSamples(),
		Labeled: st.initLabeled,
		W:       st.initW,
		Session: st.session,
	}
	if st.opts.Async {
		// Offer asynchronous mode in the hello's otherwise-unused Users
		// field; sync hellos keep it zero (byte-identical wire).
		hello.Users = asyncHello
	}
	if err := conn.Send(hello); err != nil {
		return nil, connFail("protocol: RunClient hello: %w", err)
	}
	var watchdog *time.Timer
	if st.replyWithin > 0 {
		// Closing is the one way to end a Recv on any Conn; the failure then
		// reads as a lost link, which a redial may fix.
		watchdog = time.AfterFunc(st.replyWithin, func() { _ = conn.Close() })
	}
	reply, err := conn.Recv()
	if watchdog != nil {
		watchdog.Stop()
	}
	if err != nil {
		return nil, connFail("protocol: RunClient hello reply: %w", err)
	}
	switch reply.Type {
	case transport.MsgHello:
	case transport.MsgError:
		return nil, fmt.Errorf("%w: %s", ErrAborted, reply.Reason)
	default:
		return nil, fmt.Errorf("%w: got %v, want hello", ErrUnexpectedMsg, reply.Type)
	}
	if reply.Config == nil || reply.Users <= 0 {
		return nil, fmt.Errorf("%w: hello reply missing config", ErrUnexpectedMsg)
	}
	if st.opts.Async && reply.Samples != asyncHello {
		return nil, fmt.Errorf("%w: server did not confirm asynchronous mode", ErrUnexpectedMsg)
	}
	if reply.Session != 0 && reply.Session != st.session {
		st.session = reply.Session
		if st.opts.OnSession != nil {
			st.opts.OnSession(st.session)
		}
	}
	st.telemetry = reply.Config.Telemetry
	if st.worker == nil {
		cfg := coreConfig(reply.Config)
		cfg.Seed = st.opts.Seed
		cfg.Obs = st.opts.Obs
		st.rho = reply.Config.Rho
		worker, err := core.NewWorker(st.data, reply.Users, cfg)
		if err != nil {
			return nil, fmt.Errorf("protocol: RunClient: %w", err)
		}
		st.worker = worker
	}

	for {
		msg, err := conn.Recv()
		if err != nil {
			return nil, connFail("protocol: RunClient: %w", err)
		}
		switch msg.Type {
		case transport.MsgStartRound:
			// After a reconnect the server replays the current round's
			// start-round; refreshing again would move the linearization
			// point mid-round, so a round the worker already froze is
			// skipped.
			if msg.Round != st.frozenEpoch || !st.worker.Ready() {
				st.worker.RefreshSigns(mat.Vector(msg.W0))
				st.frozenEpoch = msg.Round
			}
		case transport.MsgParams:
			var solveStart time.Time
			if st.telemetry {
				solveStart = time.Now()
			}
			w, v, xi, err := st.worker.Solve(mat.Vector(msg.W0), mat.Vector(msg.U), st.rho)
			if err != nil {
				_ = conn.Send(transport.Message{Type: transport.MsgError, Reason: err.Error()})
				return nil, fmt.Errorf("protocol: RunClient solve: %w", err)
			}
			update := transport.Message{Type: transport.MsgUpdate, Round: msg.Round,
				W: w, V: v, Xi: xi}
			if st.telemetry {
				update.Telemetry = st.buildTelemetry(time.Since(solveStart), conn)
			}
			if err := conn.Send(update); err != nil {
				return nil, connFail("protocol: RunClient update: %w", err)
			}
		case transport.MsgDone:
			return &ClientResult{
				W0:      mat.Vector(msg.W0).Clone(), // outlives the connection's loan
				W:       st.worker.Hyperplane(),
				Session: st.session,
			}, nil
		case transport.MsgError:
			return nil, fmt.Errorf("%w: %s", ErrAborted, msg.Reason)
		default:
			return nil, fmt.Errorf("%w: %v", ErrUnexpectedMsg, msg.Type)
		}
	}
}

// buildTelemetry assembles the piggyback block for one update: this solve's
// wall time and solver counts, plus the device's cumulative traffic and the
// cost-model energy estimate (compute scaled to device time by the default
// phone profile, radio energy from the message/byte totals). Durations are
// device-local only — the server anchors them to its own round clock.
func (st *clientState) buildTelemetry(solveDur time.Duration, conn transport.Conn) *transport.WireTelemetry {
	st.solveTotal += solveDur
	ss := st.worker.TakeSolveStats()
	stats := st.traffic.Add(conn.Stats())
	phone := cost.DefaultPhone()
	energy := phone.ComputeEnergyJ(phone.DeviceTime(st.solveTotal)) + phone.CommEnergyJ(stats)
	return &transport.WireTelemetry{
		SolveNS:   solveDur.Nanoseconds(),
		QPIters:   ss.QPIters,
		Cuts:      ss.Cuts,
		WarmHits:  ss.WarmHits,
		SignFlips: int64(ss.SignFlips),
		MsgsSent:  int64(stats.MessagesSent),
		MsgsRecv:  int64(stats.MessagesReceived),
		BytesSent: stats.BytesSent,
		BytesRecv: stats.BytesReceived,
		EnergyJ:   energy,
	}
}

// RunClient executes the device side of the protocol over conn using the
// local dataset. It blocks until the server finishes (or fails) and
// returns the final model from the device's perspective. The raw samples
// in data are never serialized.
func RunClient(conn transport.Conn, data core.UserData, opts ClientOptions) (*ClientResult, error) {
	st, err := newClientState(data, opts)
	if err != nil {
		return nil, err
	}
	res, err := st.run(conn)
	if res != nil {
		res.Traffic = st.traffic
	}
	return res, err
}

// RunClientLoop is RunClient with reconnection: when a connection fails
// mid-training it redials (up to opts.MaxRedials times, with seeded
// exponential backoff) and resumes its slot via the session token. dial is
// called for every connection, including the first; RunClientLoop closes
// every connection it opens. Fatal protocol errors (server abort, local
// solve failure) are returned immediately without redialing.
func RunClientLoop(dial func() (transport.Conn, error), data core.UserData, opts ClientOptions) (*ClientResult, error) {
	st, err := newClientState(data, opts)
	if err != nil {
		return nil, err
	}
	base := opts.RedialDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	const maxDelay = 2 * time.Second
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	g := rng.New(opts.Seed).Split("redial")

	var lastErr error
	for attempt := 0; ; attempt++ {
		conn, dialErr := dial()
		if dialErr == nil {
			res, runErr := st.run(conn)
			_ = conn.Close()
			if runErr == nil {
				res.Traffic = st.traffic
				return res, nil
			}
			var ce *connError
			if !errors.As(runErr, &ce) {
				return nil, runErr
			}
			lastErr = runErr
		} else {
			lastErr = fmt.Errorf("protocol: RunClientLoop dial: %w", dialErr)
		}
		if attempt >= opts.MaxRedials {
			return nil, fmt.Errorf("protocol: RunClientLoop: gave up after %d attempts: %w",
				attempt+1, lastErr)
		}
		st.replyWithin = resumeReplyTimeout
		delay := base << attempt
		if delay > maxDelay || delay <= 0 {
			delay = maxDelay
		}
		jitter := 1 + float64(0.2*(float64(2*g.Float64())-1))
		sleep(time.Duration(float64(delay) * jitter))
	}
}
