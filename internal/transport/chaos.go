package transport

import (
	"fmt"
	"sync"
	"time"

	"plos/internal/obs"
	"plos/internal/rng"
)

// ChaosConfig configures the deterministic chaos connection. All
// probabilities are per operation; every draw comes from streams split off
// Seed, so a given seed replays the identical fault schedule (for a fixed
// operation order — concurrent Send and Recv share partition state, so
// cross-direction interleaving is the only nondeterminism left).
//
// The fault model is send-side: a "dropped" or "corrupted" message is lost
// before it reaches the wire and surfaces locally as a transient error,
// because a length-prefixed, strictly validated codec turns in-flight
// corruption into frame loss anyway. Duplication delivers the same stamped
// message twice (the peer's Retry wrapper dedupes by Seq). Delay stalls an
// operation without failing it. A flap partitions the link: the next
// PartitionOps operations in both directions fail transiently.
type ChaosConfig struct {
	// Seed keys the fault streams (independent per direction).
	Seed int64
	// DropProb is the chance a Send is silently lost (transient error).
	DropProb float64
	// CorruptProb is the chance a Send is corrupted in flight and discarded
	// by the link layer (transient error, indistinguishable from a drop).
	CorruptProb float64
	// DupProb is the chance a Send is delivered twice.
	DupProb float64
	// DelayProb is the chance an operation is delayed by a uniform fraction
	// of MaxDelay (default 10ms) before proceeding.
	DelayProb float64
	MaxDelay  time.Duration
	// FlapProb is the chance an operation trips a link partition lasting
	// PartitionOps operations (default 3) across both directions.
	FlapProb     float64
	PartitionOps int
	// Sleep replaces time.Sleep in tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 10 * time.Millisecond
	}
	if c.PartitionOps <= 0 {
		c.PartitionOps = 3
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Chaos wraps inner with the seeded fault injector described by cfg and
// counts every injected fault in the registry (nil registry is fine). Wrap
// Chaos *under* Retry so the retry layer absorbs the injected transients:
//
//	conn = transport.Retry(transport.Chaos(base, chaosCfg, reg), policy, reg)
func Chaos(inner Conn, cfg ChaosConfig, r *obs.Registry) Conn {
	if inner == nil {
		return nil
	}
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed)
	return &chaosConn{
		inner:   inner,
		cfg:     cfg,
		sendRng: root.Split("chaos-send"),
		recvRng: root.Split("chaos-recv"),
		faults:  r.Counter(obs.MetricChaosFaults, ""),
	}
}

type chaosConn struct {
	inner Conn
	cfg   ChaosConfig

	// mu guards the per-direction streams and the shared partition state.
	// Fault decisions are made under the lock; the I/O itself is not.
	mu          sync.Mutex
	sendRng     *rng.RNG
	recvRng     *rng.RNG
	partitioned int
	// Traffic transmitted by the radio but lost in flight (drop/corrupt).
	// The retry layer re-sends these frames, so the true cost of the link
	// is inner stats plus the lost traffic; Stats folds it back in.
	lostMsgs  int
	lostBytes int64

	faults *obs.Counter
}

// chaosPlan is one operation's fault decision.
type chaosPlan struct {
	fail  error         // non-nil: fail the op without touching the wire
	lost  bool          // the failed Send was transmitted then lost in flight
	delay time.Duration // sleep before the op
	dup   bool          // send twice (Send only)
}

func (c *chaosConn) plan(op string, g *rng.RNG, sendSide bool) chaosPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partitioned > 0 {
		c.partitioned--
		c.faults.Inc()
		return chaosPlan{fail: markTransient(fmt.Errorf("transport: %s: partitioned: %w", op, ErrInjected))}
	}
	if c.cfg.FlapProb > 0 && g.Bool(c.cfg.FlapProb) {
		// The tripping operation fails too; the remaining budget covers the
		// next PartitionOps-1 operations in either direction.
		c.partitioned = c.cfg.PartitionOps - 1
		c.faults.Inc()
		return chaosPlan{fail: markTransient(fmt.Errorf("transport: %s: link flap: %w", op, ErrInjected))}
	}
	if sendSide {
		// Drops and corruptions are in-flight losses: the radio transmitted
		// the frame before the link ate it, so the bytes must still show up
		// in Stats (lost=true) even though inner.Send is never called.
		// Partition/flap failures above are different — the radio was down,
		// nothing was transmitted, nothing is counted.
		if c.cfg.DropProb > 0 && g.Bool(c.cfg.DropProb) {
			c.faults.Inc()
			return chaosPlan{fail: markTransient(fmt.Errorf("transport: %s: dropped: %w", op, ErrInjected)), lost: true}
		}
		if c.cfg.CorruptProb > 0 && g.Bool(c.cfg.CorruptProb) {
			c.faults.Inc()
			return chaosPlan{fail: markTransient(fmt.Errorf("transport: %s: corrupted in flight: %w", op, ErrInjected)), lost: true}
		}
	}
	var p chaosPlan
	if sendSide && c.cfg.DupProb > 0 && g.Bool(c.cfg.DupProb) {
		c.faults.Inc()
		p.dup = true
	}
	if c.cfg.DelayProb > 0 && g.Bool(c.cfg.DelayProb) {
		c.faults.Inc()
		p.delay = time.Duration(g.Float64() * float64(c.cfg.MaxDelay))
	}
	return p
}

func (c *chaosConn) Send(m Message) error {
	p := c.plan("Send", c.sendRng, true)
	if p.fail != nil {
		if p.lost {
			c.mu.Lock()
			c.lostMsgs++
			c.lostBytes += int64(m.WireSize())
			c.mu.Unlock()
		}
		return p.fail
	}
	if p.delay > 0 {
		c.cfg.Sleep(p.delay)
	}
	if err := c.inner.Send(m); err != nil {
		return err
	}
	if p.dup {
		// Best-effort second delivery of the identical stamped frame; the
		// peer's dedup discards it, so a failure here is not an error. The
		// delivery is asynchronous because a rendezvous transport (the pipe)
		// would otherwise block this sender until the peer reads the
		// duplicate, deadlocking a strict request/response protocol. It
		// outlives this call, which only borrowed m: a copy is resent.
		dup := m
		new(vecSlots).hold(&dup)
		go func() { _ = c.inner.Send(dup) }()
	}
	return nil
}

func (c *chaosConn) Recv() (Message, error) {
	p := c.plan("Recv", c.recvRng, false)
	if p.fail != nil {
		return Message{}, p.fail
	}
	if p.delay > 0 {
		c.cfg.Sleep(p.delay)
	}
	return c.inner.Recv()
}

func (c *chaosConn) Close() error { return c.inner.Close() }

// Stats reports the link's true traffic: what the wrapped connection saw
// plus the frames the radio transmitted that the link lost in flight.
// Sampling only the inner connection under-counted retried traffic — every
// dropped frame the retry layer re-sent was transmitted twice but counted
// once.
func (c *chaosConn) Stats() Stats {
	s := c.inner.Stats()
	c.mu.Lock()
	s.MessagesSent += c.lostMsgs
	s.BytesSent += c.lostBytes
	c.mu.Unlock()
	return s
}

// SetOpTimeout forwards the per-op deadline to the wrapped connection.
func (c *chaosConn) SetOpTimeout(d time.Duration) { SetOpTimeout(c.inner, d) }
