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

	closeOnce sync.Once
	closed    chan struct{}   // this endpoint closed
	peer      <-chan struct{} // peer endpoint closed

	// opTimeout, when positive, bounds each Send/Recv. A timed-out pipe op
	// consumes nothing — the message was never handed over — so pipe
	// timeouts are transient and may be retried on the same conn.
	opTimeout atomic.Int64
}

// SetOpTimeout bounds every subsequent Send/Recv to d (d <= 0 clears it).
func (p *pipeConn) SetOpTimeout(d time.Duration) { p.opTimeout.Store(int64(d)) }

// opDeadline returns a channel that fires when the op timeout expires, plus
// its stop function; both are nil when no timeout is configured.
func (p *pipeConn) opDeadline() (<-chan time.Time, func() bool) {
	d := time.Duration(p.opTimeout.Load())
	if d <= 0 {
		return nil, nil
	}
	tm := time.NewTimer(d)
	return tm.C, tm.Stop
}

// Pipe returns two connected in-process endpoints. Traffic is accounted
// with Message.WireSize so simulated runs report deterministic volumes.
func Pipe() (Conn, Conn) {
	ab := make(chan Message)
	ba := make(chan Message)
	ca := make(chan struct{})
	cb := make(chan struct{})
	a := &pipeConn{send: ab, recv: ba, closed: ca, peer: cb}
	b := &pipeConn{send: ba, recv: ab, closed: cb, peer: ca}
	return a, b
}

func (p *pipeConn) Send(m Message) error {
	deadline, stop := p.opDeadline()
	if stop != nil {
		defer stop()
	}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	p.sets[p.turn].hold(&m)
	select {
	case <-p.closed:
		return fmt.Errorf("transport: Send: %w", ErrClosed)
	case <-p.peer:
		return fmt.Errorf("transport: Send: peer %w", ErrClosed)
	case <-deadline:
		return markTransient(fmt.Errorf("transport: Send: %w", ErrTimeout))
	case p.send <- m:
		p.turn ^= 1
		p.addSent(m.WireSize())
		return nil
	}
}

func (p *pipeConn) Recv() (Message, error) {
	deadline, stop := p.opDeadline()
	if stop != nil {
		defer stop()
	}
	select {
	case <-p.closed:
		return Message{}, fmt.Errorf("transport: Recv: %w", ErrClosed)
	case m := <-p.recv:
		p.addReceived(m.WireSize())
		return m, nil
	case <-deadline:
		return Message{}, markTransient(fmt.Errorf("transport: Recv: %w", ErrTimeout))
	case <-p.peer:
		// Drain any message raced with the close.
		select {
		case m := <-p.recv:
			p.addReceived(m.WireSize())
			return m, nil
		default:
			return Message{}, fmt.Errorf("transport: Recv: peer %w", ErrClosed)
		}
	}
}

func (p *pipeConn) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	return nil
}
