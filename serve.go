package plos

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"plos/internal/compress"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/protocol"
	"plos/internal/rng"
	"plos/internal/svm"
	"plos/internal/transport"
)

// ServeResult is the coordinator-side outcome of a distributed run: the
// trained model plus per-device traffic accounting (what the paper's
// Fig. 13 reports).
type ServeResult struct {
	Model *Model
	// Dropped[t] is true if device t died mid-training; its personalized
	// hyperplane is then absent from the model.
	Dropped []bool
	// DropCause[t] is the first fatal failure recorded for device t (nil
	// when the device never failed).
	DropCause []error
	// TrafficBytes[t] is the total bytes exchanged with device t;
	// TrafficMessages[t] the message count.
	TrafficBytes    []int64
	TrafficMessages []int
}

// rejoinHelloTimeout bounds how long an accepted reconnection may take to
// present its hello before the coordinator gives up on it.
const rejoinHelloTimeout = 30 * time.Second

// linkKind says which stack wrapLink builds.
type linkKind int

const (
	serverLink linkKind = iota // a device connection, at the coordinator or shard that accepted it
	clientLink                 // the same connection, at the device
	aggLink                    // a shard↔aggregator connection, at either end
)

// listeners holds, per kind of link a listener accepts, what error texts call
// the peer and the labels of the retry streams of the peers a run starts with
// and of the reconnections.
var listeners = [...]struct{ peer, seed, rejoinSeed string }{
	serverLink: {"device", "retry-server", "retry-rejoin"},
	aggLink:    {"shard", "retry-agg", "retry-agg-rejoin"},
}

// wrapLink layers the configured reliability stack over a raw connection:
// per-operation timeouts on the base transport, observability counters, the
// seeded retry/backoff layer on top (so retried attempts are counted), and
// — on a device link, when WithCompression is configured — codec-v4 payload
// compression outermost, so a retried frame is the identical
// already-compressed message and the compression streams advance once per
// logical send. An aggLink is never compressed, whatever WithCompression
// says: it carries exact partial sums (Σ(x_t+u_t), residual partials) whose
// fold order pins the plane's bit-identity contract (docs/SHARDING.md), and
// lossy error-feedback quantization would corrupt those reduces. Its retries
// are also counted under their own metric.
func wrapLink(c transport.Conn, o *options, seedLabel string, idx int, kind linkKind) transport.Conn {
	retryCounter := ""
	if kind == aggLink {
		retryCounter = obs.MetricAggLinkRetries
	}
	if o.ft.opTimeout > 0 {
		transport.SetOpTimeout(c, o.ft.opTimeout)
	}
	wired := c
	if o.core.Obs != nil {
		wired = transport.Observe(c, o.core.Obs, idx)
	}
	if o.ft.retries > 1 {
		wired = transport.Retry(wired, transport.RetryPolicy{
			MaxAttempts: o.ft.retries,
			Seed:        rng.New(o.core.Seed).SplitN(seedLabel, idx).Int63(),
			Counter:     retryCounter,
		}, o.core.Obs)
	}
	if kind != aggLink && o.comp.Enabled() {
		role := transport.CompressServer
		if kind == clientLink {
			role = transport.CompressClient
		}
		wired = transport.Compress(wired, o.comp, role, o.core.Obs)
	}
	return testLinkWrap(wired)
}

// testLinkWrap is the seam tests run the serving path under transport.Poison by.
var testLinkWrap = func(c transport.Conn) transport.Conn { return c }

func (o *options) serverFT(rejoin <-chan protocol.Rejoin, restore *protocol.Checkpoint) protocol.FTConfig {
	return protocol.FTConfig{
		RoundTimeout:    o.ft.roundTimeout,
		Quorum:          o.ft.quorum,
		MaxStale:        o.ft.maxStale,
		Resume:          o.ft.resume,
		Rejoin:          rejoin,
		CheckpointPath:  o.ft.checkpointPath,
		CheckpointEvery: o.ft.checkpointEvery,
		Restore:         restore,
	}
}

// Serve runs the PLOS coordinator on addr ("host:port"; ":0" picks a free
// port) and trains with exactly `devices` connected Join peers. It blocks
// until training completes. onListen, if non-nil, receives the bound
// address before accepting starts (useful with ":0").
//
// With WithCheckpoint, an existing checkpoint file at the configured path
// makes Serve resume the interrupted run instead of starting fresh: it then
// waits for one connection per surviving device (the `devices` argument is
// ignored in favor of the checkpoint's device count), each presenting its
// session token.
//
// Raw data never reaches the coordinator: devices exchange only model
// parameters (paper §V).
func Serve(addr string, devices int, onListen func(addr string), opts ...Option) (*ServeResult, error) {
	var res *protocol.ServerResult
	o, err := serve(addr, devices, onListen, opts, serverLink,
		func(o *options, peers []transport.Conn, rejoin <-chan protocol.Rejoin, restore *protocol.Checkpoint) (err error) {
			res, err = protocol.RunServer(peers, protocol.ServerConfig{
				Core: o.core, Dist: o.dist, FT: o.serverFT(rejoin, restore),
				Async: o.wireAsync,
			})
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("plos: Serve: %w", err)
	}
	return serveResult(res, o), nil
}

// wireOptions applies opts to the defaults and parses the WithCompression spec.
func wireOptions(opts []Option) (options, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	var err error
	o.comp, err = compress.Parse(o.compressSpec)
	return o, err
}

// serve is the shell Serve, ServeShard and ServeAggregator share: refuse a
// run without peers and parse the options; on a process that owns devices
// (serverLink peers), probe the checkpoint, which when present replaces n by
// its count of surviving devices; listen, report the address, accept the n
// peers and give each its link stack; keep the listener accepting
// reconnections for the length of the run; hand the lot to run. It returns
// the parsed options for the result.
func serve(addr string, n int, onListen func(addr string), opts []Option, kind linkKind,
	run func(o *options, peers []transport.Conn, rejoin <-chan protocol.Rejoin, restore *protocol.Checkpoint) error) (*options, error) {
	if n <= 0 {
		return nil, errors.New("need at least one " + listeners[kind].peer)
	}
	o, err := wireOptions(opts)
	if err != nil {
		return nil, err
	}

	var restore *protocol.Checkpoint
	if kind == serverLink && o.ft.checkpointPath != "" {
		ck, err := protocol.LoadCheckpoint(o.ft.checkpointPath)
		switch {
		case err == nil:
			restore = ck
			n = 0
			for _, d := range ck.Dropped {
				if !d {
					n++
				}
			}
		case errors.Is(err, fs.ErrNotExist):
			// No checkpoint yet: fresh run.
		default:
			return nil, err
		}
	}

	l, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	if onListen != nil {
		onListen(l.Addr())
	}
	conns, err := l.AcceptN(n)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	wired := make([]transport.Conn, len(conns))
	for i, c := range conns {
		wired[i] = wrapLink(c, &o, listeners[kind].seed, i, kind)
	}

	rejoin, endRejoins := startRejoins(l, &o, n, kind)
	defer endRejoins()
	return &o, run(&o, wired, rejoin, restore)
}

// serveResult is the ServeResult of a process that owned devices.
func serveResult(res *protocol.ServerResult, o *options) *ServeResult {
	out := &ServeResult{
		Model:     &Model{model: res.Model, info: res.Info, bias: o.bias},
		Dropped:   res.Dropped,
		DropCause: res.DropCause,
	}
	for _, s := range res.PerUser {
		out.TrafficBytes = append(out.TrafficBytes, s.BytesSent+s.BytesReceived)
		out.TrafficMessages = append(out.TrafficMessages, s.MessagesSent+s.MessagesReceived)
	}
	return out
}

// startRejoins keeps l accepting for the length of a run with resume enabled
// (a nil queue otherwise): each new connection gets the kind's link stack, its
// first hello — a device's resume, or a restarted shard's checkpoint-restore
// shard-hello — is read off-thread and queued, n deep, for the protocol loop
// to validate at its next iteration boundary. end closes the intake once that
// loop has returned: what was queued after its last drain is answered, not
// left waiting.
func startRejoins(l *transport.Listener, o *options, n int, kind linkKind) (rejoin chan protocol.Rejoin, end func()) {
	if !o.ft.resume {
		return nil, func() {}
	}
	rejoin = make(chan protocol.Rejoin, n)
	stop := make(chan struct{})
	go acceptRejoins(l, o, kind, rejoin, stop)
	return rejoin, func() {
		close(stop)
		rejectQueued(rejoin)
	}
}

// acceptRejoins feeds reconnection attempts to the protocol loop until the
// listener closes. Each connection gets a bounded window to present its
// hello; one that arrives once the run is over (stop closed) is answered with
// sessionOver instead of being queued.
func acceptRejoins(l *transport.Listener, o *options, kind linkKind, rejoin chan protocol.Rejoin, stop <-chan struct{}) {
	for i := 0; ; i++ {
		c, err := l.Accept()
		if err != nil {
			return // listener closed: training is over
		}
		conn := wrapLink(c, o, listeners[kind].rejoinSeed, i, kind)
		go func() {
			if o.ft.opTimeout <= 0 {
				transport.SetOpTimeout(c, rejoinHelloTimeout)
			}
			m, err := conn.Recv()
			if o.ft.opTimeout <= 0 {
				transport.SetOpTimeout(c, 0)
			}
			if err != nil {
				_ = conn.Close()
				return
			}
			select {
			case rejoin <- protocol.Rejoin{Conn: conn, Hello: m}:
				select {
				case <-stop: // queued after the run's end looked: nobody else will
					rejectQueued(rejoin)
				default:
				}
			case <-stop:
				sessionOver(conn)
			}
		}()
	}
}

// sessionOver gives a peer that redialled into a finished run the typed answer
// it is parked in Recv for, and closes the connection.
func sessionOver(c transport.Conn) {
	_ = c.Send(transport.Message{Type: transport.MsgError, Reason: "session over"})
	_ = c.Close()
}

// rejectQueued answers every reconnection waiting in the queue with sessionOver.
func rejectQueued(rejoin <-chan protocol.Rejoin) {
	for {
		select {
		case rj := <-rejoin:
			sessionOver(rj.Conn)
		default:
			return
		}
	}
}

// DeviceModel is what a device holds after Join completes: the shared
// hyperplane and its own personalized one.
type DeviceModel struct {
	global, personal mat.Vector
	bias             bool
	// Bytes and Messages account the device's total traffic.
	Bytes    int64
	Messages int
	// Session is the coordinator-issued resume token (0 when the
	// coordinator runs without session resume).
	Session int64
}

// Predict classifies x with the device's personalized hyperplane.
func (d *DeviceModel) Predict(x []float64) float64 {
	v := mat.Vector(x)
	if d.bias {
		v = svm.AugmentBiasVec(v)
	}
	if d.personal.Dot(v) >= 0 {
		return 1
	}
	return -1
}

// Global returns a copy of the shared hyperplane.
func (d *DeviceModel) Global() []float64 { return append([]float64(nil), d.global...) }

// Personalized returns a copy of the device's hyperplane.
func (d *DeviceModel) Personalized() []float64 { return append([]float64(nil), d.personal...) }

// Join connects a device to a Serve coordinator at addr and participates
// in training with its local data. It blocks until the coordinator
// finishes. The user's raw samples are never serialized.
//
// The training hyperparameters (λ, Cl, Cu, ρ, …) are decided by the
// coordinator and pushed to devices; Join's options only cover
// device-local choices (bias augmentation must match the coordinator's,
// and the seed drives the local initialization). With WithSessionResume,
// Join survives connection failures by redialing and resuming its session.
func Join(addr string, user User, opts ...Option) (*DeviceModel, error) {
	o, err := wireOptions(opts)
	if err != nil {
		return nil, fmt.Errorf("plos: Join: %w", err)
	}
	users, err := toUserData([]User{user}, o.bias)
	if err != nil {
		return nil, fmt.Errorf("plos: Join: %w", err)
	}
	data := users[0]
	copts := protocol.ClientOptions{
		Seed:       o.core.Seed,
		Session:    o.ft.session,
		OnSession:  o.ft.onSession,
		MaxRedials: o.ft.maxRedials,
		Obs:        o.core.Obs,
		Async:      o.wireAsync,
	}

	var res *protocol.ClientResult
	if o.ft.resume && o.ft.maxRedials > 0 {
		dial := func() (transport.Conn, error) {
			c, derr := transport.Dial(addr)
			if derr != nil {
				return nil, derr
			}
			return wrapLink(c, &o, "retry-client", 0, clientLink), nil
		}
		res, err = protocol.RunClientLoop(dial, data, copts)
	} else {
		conn, derr := transport.Dial(addr)
		if derr != nil {
			return nil, fmt.Errorf("plos: Join: %w", derr)
		}
		defer conn.Close()
		res, err = protocol.RunClient(wrapLink(conn, &o, "retry-client", 0, clientLink), data, copts)
	}
	if err != nil {
		return nil, fmt.Errorf("plos: Join: %w", err)
	}
	return &DeviceModel{
		global:   res.W0,
		personal: res.W,
		bias:     o.bias,
		Bytes:    res.Traffic.BytesSent + res.Traffic.BytesReceived,
		Messages: res.Traffic.MessagesSent + res.Traffic.MessagesReceived,
		Session:  res.Session,
	}, nil
}
