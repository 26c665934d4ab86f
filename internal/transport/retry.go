package transport

import (
	"errors"
	"sync"
	"time"

	"plos/internal/obs"
	"plos/internal/rng"
)

// RetryPolicy configures the Retry wrapper: capped exponential backoff with
// multiplicative jitter. The jitter stream is drawn from internal/rng, so a
// given (Seed, failure pattern) always produces the same retry schedule —
// chaos runs are replayable.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per operation (first try included);
	// 0 selects the default of 3.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt up to MaxDelay. Defaults: 5ms base, 250ms cap.
	BaseDelay, MaxDelay time.Duration
	// Jitter scales each delay by a uniform factor in [1-Jitter, 1+Jitter]
	// (clamped at 0). 0 selects the default of 0.2; negative disables.
	Jitter float64
	// Seed keys the jitter streams (independent per direction).
	Seed int64
	// Sleep is the delay function, replaceable in tests; nil means
	// time.Sleep.
	Sleep func(time.Duration)
	// Counter, when non-empty, names an additional registry counter
	// incremented alongside transport_retries_total for every retry on this
	// connection (e.g. agg_link_retries_total on shard-aggregator links).
	Counter string
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Retry wraps inner with the reliability layer: transient Send/Recv failures
// (see IsTransient) are retried up to the policy's attempt budget with
// seeded, capped exponential backoff; outgoing messages are stamped with a
// per-connection sequence number and incoming duplicates (a retried send the
// peer actually received twice) are discarded by that number. Permanent
// failures pass through unchanged on the first occurrence. A nil registry is
// fine; a nil inner returns nil.
func Retry(inner Conn, p RetryPolicy, r *obs.Registry) Conn {
	if inner == nil {
		return nil
	}
	p = p.withDefaults()
	root := rng.New(p.Seed)
	c := &retryConn{
		inner:    inner,
		p:        p,
		sendRng:  root.Split("retry-send"),
		recvRng:  root.Split("retry-recv"),
		retries:  r.Counter(obs.MetricTransportRetries, ""),
		timeouts: r.Counter(obs.MetricTransportOpTimeouts, ""),
		dups:     r.Counter(obs.MetricTransportDupsDropped, ""),
	}
	if p.Counter != "" {
		c.extra = r.Counter(p.Counter, "")
	}
	return c
}

type retryConn struct {
	inner Conn
	p     RetryPolicy

	sendMu  sync.Mutex
	sendRng *rng.RNG
	seq     int64 // last sequence number stamped on an outgoing message

	recvMu   sync.Mutex
	recvRng  *rng.RNG
	lastSeen int64 // highest sequence number accepted from the peer

	retries, timeouts, dups *obs.Counter
	extra                   *obs.Counter // optional per-link counter (RetryPolicy.Counter)
}

// backoff returns the jittered delay before attempt+1 (attempt counts from 1).
func (c *retryConn) backoff(attempt int, g *rng.RNG) time.Duration {
	d := c.p.BaseDelay
	for i := 1; i < attempt && d < c.p.MaxDelay; i++ {
		d *= 2
	}
	if d > c.p.MaxDelay {
		d = c.p.MaxDelay
	}
	if c.p.Jitter > 0 {
		factor := 1 + float64(c.p.Jitter*(float64(2*g.Float64())-1))
		if factor < 0 {
			factor = 0
		}
		d = time.Duration(float64(d) * factor)
	}
	return d
}

func (c *retryConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if m.Seq == 0 {
		c.seq++
		m.Seq = c.seq
	}
	for attempt := 1; ; attempt++ {
		err := c.inner.Send(m)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrTimeout) {
			c.timeouts.Inc()
		}
		if !IsTransient(err) || attempt >= c.p.MaxAttempts {
			return err
		}
		c.retries.Inc()
		c.extra.Inc()
		c.p.Sleep(c.backoff(attempt, c.sendRng))
	}
}

func (c *retryConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	for attempt := 1; ; {
		m, err := c.inner.Recv()
		if err == nil {
			// A duplicate (an at-least-once delivery of a message we already
			// accepted) is invisible to the caller and consumes no attempt.
			if m.Seq != 0 && m.Seq <= c.lastSeen {
				c.dups.Inc()
				continue
			}
			if m.Seq != 0 {
				c.lastSeen = m.Seq
			}
			return m, nil
		}
		if errors.Is(err, ErrTimeout) {
			c.timeouts.Inc()
		}
		if !IsTransient(err) || attempt >= c.p.MaxAttempts {
			return Message{}, err
		}
		c.retries.Inc()
		c.extra.Inc()
		c.p.Sleep(c.backoff(attempt, c.recvRng))
		attempt++
	}
}

func (c *retryConn) Close() error { return c.inner.Close() }

func (c *retryConn) Stats() Stats { return c.inner.Stats() }

// SetOpTimeout forwards the per-op deadline to the wrapped connection.
func (c *retryConn) SetOpTimeout(d time.Duration) { SetOpTimeout(c.inner, d) }
