package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// pipeConn is one endpoint of an in-process connection. Messages flow over
// unbuffered channels: a Send completes only when the peer Recvs, mirroring
// the request/response discipline of the PLOS protocol.
//
// A pipe keeps the Conn lending contract the way a socket does, by never
// handing over the sender's arrays: Send copies the vectors into storage the
// endpoint owns. Two sets, used in turn, suffice — Send k+2 starts only after
// the peer's Recv k+1, which ended the loan of message k. A timed-out Send
// handed nothing over and its retry refills the same set.
type pipeConn struct {
	counter
	send chan<- Message
	recv <-chan Message

	// sendMu: Chaos's asynchronous duplicate is a second sender.
	sendMu sync.Mutex
	sets   [2]vecSlots // under sendMu
	turn   int         // under sendMu: the set the next Send fills

	// done, shared by both ends, is closed by the first Close of either: a
	// Send or Recv selects over its data channel and done, and over the op
	// timer only when a timeout is set. closed marks this end's Close, which
	// picks the error a closed pipe reports.
	done     chan struct{}
	doneOnce *sync.Once
	closed   atomic.Bool

	// opTimeout, when positive, bounds each Send/Recv. A timed-out pipe op
	// consumes nothing — the message was never handed over — so pipe
	// timeouts are transient and may be retried on the same conn.
	opTimeout atomic.Int64
}

// SetOpTimeout bounds every subsequent Send/Recv to d (d <= 0 clears it).
func (p *pipeConn) SetOpTimeout(d time.Duration) { p.opTimeout.Store(int64(d)) }

// opTimer starts a timer for the op timeout; nil when none is configured.
func (p *pipeConn) opTimer() *time.Timer {
	if d := time.Duration(p.opTimeout.Load()); d > 0 {
		return time.NewTimer(d)
	}
	return nil
}

// Pipe returns two connected in-process endpoints. Traffic is accounted
// with Message.WireSize so simulated runs report deterministic volumes.
func Pipe() (Conn, Conn) {
	ab := make(chan Message)
	ba := make(chan Message)
	done, once := make(chan struct{}), new(sync.Once)
	return &pipeConn{send: ab, recv: ba, done: done, doneOnce: once},
		&pipeConn{send: ba, recv: ab, done: done, doneOnce: once}
}

// closedErr is op's error on a closed pipe: ErrClosed when this end closed
// it, "peer" ErrClosed when the other end did.
func (p *pipeConn) closedErr(op string) error {
	if p.closed.Load() {
		return fmt.Errorf("transport: %s: %w", op, ErrClosed)
	}
	return fmt.Errorf("transport: %s: peer %w", op, ErrClosed)
}

func (p *pipeConn) Send(m Message) error {
	tm := p.opTimer()
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	p.sets[p.turn].hold(&m)
	if tm == nil {
		select {
		case <-p.done:
			return p.closedErr("Send")
		case p.send <- m:
		}
	} else {
		defer tm.Stop()
		select {
		case <-p.done:
			return p.closedErr("Send")
		case <-tm.C:
			return markTransient(fmt.Errorf("transport: Send: %w", ErrTimeout))
		case p.send <- m:
		}
	}
	p.turn ^= 1
	p.addSent(m.WireSize())
	return nil
}

func (p *pipeConn) Recv() (m Message, err error) {
	if tm := p.opTimer(); tm == nil {
		select {
		case <-p.done:
			return p.drain()
		case m = <-p.recv:
		}
	} else {
		defer tm.Stop()
		select {
		case <-p.done:
			return p.drain()
		case <-tm.C:
			return Message{}, markTransient(fmt.Errorf("transport: Recv: %w", ErrTimeout))
		case m = <-p.recv:
		}
	}
	p.addReceived(m.WireSize())
	return m, nil
}

// drain is Recv on a closed pipe: a message the peer handed over as it
// closed is still delivered, once.
func (p *pipeConn) drain() (Message, error) {
	if !p.closed.Load() {
		select {
		case m := <-p.recv:
			p.addReceived(m.WireSize())
			return m, nil
		default:
		}
	}
	return Message{}, p.closedErr("Recv")
}

func (p *pipeConn) Close() error {
	p.closed.Store(true)
	p.doneOnce.Do(func() { close(p.done) })
	return nil
}
