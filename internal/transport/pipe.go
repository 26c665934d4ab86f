package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// pipe is an in-process connection: one lane per direction and both ends'
// traffic, under one lock. A Send queues its frame on the peer's lane and
// waits until the peer's Recv takes it, mirroring the request/response
// discipline of the PLOS protocol.
//
// A pipe keeps the Conn lending contract the way a socket does, by never
// handing over the sender's arrays: the receiver copies a frame's vectors
// into storage its lane owns as it takes the frame. Two sets, used in turn,
// suffice — take k+2 runs in Recv k+2, after Recv k+1 ended the loan of
// frame k. A timed-out Send withdraws the frame nobody took.
//
// An end may instead run a native exchange (Link, exchange.go): its requests
// are queued without waiting, and the peer's next frame — or the close that
// ends the pipe — completes it on the peer's (or the closer's) goroutine.
type pipe struct {
	mu     sync.Mutex
	closed bool // by the first Close of either end
	lanes  [2]lane
	stats  [2]Stats // of end 0 and end 1
}

// lane is one direction of a pipe: the frames to one end.
type lane struct {
	// q holds the frames handed over and not taken yet, oldest first: a
	// plain Send's (plain is set, the frame is the lane's own copy of its
	// header and the sender waits for the take), or the requests of the
	// peer's armed exchange, which it lends until answered. Their vectors
	// are the sender's until taken or withdrawn.
	q       [2]*Message
	head, n int
	plain   bool
	frame   Message
	// sink is the receiving end's armed exchange, answered by the next frame
	// into this lane; while it is set, q is empty.
	sink Replier
	// sets lend the frames taken from this lane; turn is the set the next
	// take fills.
	sets [2]vecSlots
	turn int
	// cond (on the pipe's lock) wakes the lane's receiver when a frame
	// arrives and its plain sender when the frame is taken; both wake when
	// the pipe closes or their op times out, and recheck.
	cond sync.Cond
}

// push queues m behind the lane's frames.
func (l *lane) push(m *Message) {
	l.q[(l.head+l.n)%len(l.q)] = m
	l.n++
}

// clear drops the lane's queued frames.
func (l *lane) clear() {
	l.q, l.head, l.n, l.plain, l.frame = [2]*Message{}, 0, 0, false, Message{}
}

// withdraw drops the requests of the sending end's exchange, which has
// ended, that the receiver has not taken. A plain frame stays: its sender
// withdraws it.
func (l *lane) withdraw() {
	if !l.plain {
		l.clear()
	}
}

// pipeConn is one end of a pipe: it receives on lanes[side] and sends on
// lanes[1-side].
type pipeConn struct {
	p    *pipe
	side int
	// sendMu: Chaos's asynchronous duplicate is a second sender.
	sendMu sync.Mutex
	// closedHere (under p.mu) marks this end's Close, which picks the error
	// a closed pipe reports: ErrClosed here, "peer" ErrClosed at the other end.
	closedHere bool
	// opTimeout, when positive, bounds each Send/Recv. A timed-out pipe op
	// consumes nothing — the frame was never taken — so pipe timeouts are
	// transient and may be retried on the same conn.
	opTimeout atomic.Int64
}

// SetOpTimeout bounds every subsequent Send/Recv to d (d <= 0 clears it).
func (c *pipeConn) SetOpTimeout(d time.Duration) { c.opTimeout.Store(int64(d)) }

// Pipe returns two connected in-process endpoints. Traffic is accounted
// with Message.WireSize so simulated runs report deterministic volumes.
func Pipe() (Conn, Conn) {
	p := &pipe{}
	for i := range p.lanes {
		p.lanes[i].cond.L = &p.mu
	}
	return &pipeConn{p: p, side: 0}, &pipeConn{p: p, side: 1}
}

// closedErr is op's error on a closed pipe (under p.mu): ErrClosed when this
// end closed it, "peer" ErrClosed when the other end did.
func (c *pipeConn) closedErr(op string) error {
	if c.closedHere {
		return fmt.Errorf("transport: %s: %w", op, ErrClosed)
	}
	return fmt.Errorf("transport: %s: peer %w", op, ErrClosed)
}

// lend hands m to end `to` (under p.mu): its vectors move into the next set
// of that end's lane, and both ends account it.
func (p *pipe) lend(to int, m *Message) {
	l := &p.lanes[to]
	l.sets[l.turn].hold(m)
	l.turn ^= 1
	size := int64(wireSize(m))
	in, out := &p.stats[to], &p.stats[1-to]
	in.MessagesReceived++
	in.BytesReceived += size
	out.MessagesSent++
	out.BytesSent += size
}

// take removes the oldest frame of end to's lane into *m and lends it
// (under p.mu), releasing a plain sender waiting on it.
func (p *pipe) take(to int, m *Message) {
	l := &p.lanes[to]
	*m = *l.q[l.head]
	l.q[l.head] = nil
	l.head = (l.head + 1) % len(l.q)
	l.n--
	p.lend(to, m)
	if l.plain {
		l.plain = false
		l.cond.Broadcast()
	}
}

// opTimer is one op's timeout: when it fires it marks the op expired and
// wakes the lane the op waits on.
type opTimer struct {
	t       *time.Timer
	expired bool // under p.mu
}

// startTimer starts the op timeout of an op waiting on l; nil when none is
// configured.
func (c *pipeConn) startTimer(l *lane) *opTimer {
	d := time.Duration(c.opTimeout.Load())
	if d <= 0 {
		return nil
	}
	ot := &opTimer{}
	ot.t = time.AfterFunc(d, func() {
		c.p.mu.Lock()
		ot.expired = true
		c.p.mu.Unlock()
		l.cond.Broadcast()
	})
	return ot
}

func (ot *opTimer) fired() bool { return ot != nil && ot.expired }

func (ot *opTimer) stop() {
	if ot != nil {
		ot.t.Stop()
	}
}

func (c *pipeConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	p := c.p
	l := &p.lanes[1-c.side]
	p.mu.Lock()
	if p.closed {
		err := c.closedErr("Send")
		p.mu.Unlock()
		return err
	}
	if r := l.sink; r != nil {
		// The peer's armed exchange takes the frame as its answer, here and
		// now; requests of it the peer never took are withdrawn.
		l.sink = nil
		p.lend(1-c.side, &m)
		p.lanes[c.side].withdraw()
		p.mu.Unlock()
		r.Reply(m, nil)
		return nil
	}
	l.frame = m
	l.push(&l.frame)
	l.plain = true
	l.cond.Broadcast()
	ot := c.startTimer(l)
	for l.plain && !p.closed && !ot.fired() {
		l.cond.Wait()
	}
	var err error
	switch {
	case !l.plain: // taken
	case p.closed:
		err = c.closedErr("Send")
	default:
		err = markTransient(fmt.Errorf("transport: Send: %w", ErrTimeout))
	}
	if err != nil {
		l.clear() // the frame nobody took
	}
	p.mu.Unlock()
	ot.stop()
	return err
}

func (c *pipeConn) Recv() (m Message, err error) {
	p := c.p
	l := &p.lanes[c.side]
	var ot *opTimer
	timed := false
	p.mu.Lock()
	for {
		switch {
		case c.closedHere:
			err = c.closedErr("Recv")
		case l.n > 0:
			// On a pipe the peer closed, a frame it handed over first is
			// still delivered, once.
			p.take(c.side, &m)
		case p.closed:
			err = c.closedErr("Recv")
		case ot.fired():
			err = markTransient(fmt.Errorf("transport: Recv: %w", ErrTimeout))
		default:
			if !timed {
				ot, timed = c.startTimer(l), true
			}
			l.cond.Wait()
			continue
		}
		p.mu.Unlock()
		ot.stop()
		return m, err
	}
}

// Close ends the pipe for both ends: blocked and later operations fail,
// armed exchanges complete with ErrClosed and their untaken requests are
// withdrawn. A plain frame handed over before the close stays deliverable
// to the other end until its sender withdraws it.
func (c *pipeConn) Close() error {
	p := c.p
	p.mu.Lock()
	if c.closedHere {
		p.mu.Unlock()
		return nil
	}
	c.closedHere = true
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var sinks [2]Replier
	for i := range p.lanes {
		l := &p.lanes[i]
		sinks[i], l.sink = l.sink, nil
		l.withdraw()
		l.cond.Broadcast()
	}
	p.mu.Unlock()
	for side, r := range sinks {
		if r == nil {
			continue
		}
		if side == c.side {
			r.Reply(Message{}, fmt.Errorf("transport: exchange: %w", ErrClosed))
		} else {
			r.Reply(Message{}, fmt.Errorf("transport: exchange: peer %w", ErrClosed))
		}
	}
	return nil
}

func (c *pipeConn) Stats() Stats {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return c.p.stats[c.side]
}

// exchange arms this end's exchange (Link.Exchange): a frame the peer already
// handed over answers it at once and its requests are never queued;
// otherwise the requests wait on the peer's lane and the sink on this end's.
func (c *pipeConn) exchange(start, out *Message, r Replier) {
	p := c.p
	in, peer := &p.lanes[c.side], &p.lanes[1-c.side]
	p.mu.Lock()
	if in.sink != nil || peer.n != 0 {
		p.mu.Unlock()
		panic("transport: exchange armed while this end has a frame or an exchange in flight")
	}
	switch {
	case p.closed:
		err := c.closedErr("exchange")
		p.mu.Unlock()
		r.Reply(Message{}, err)
	case in.n > 0:
		var m Message
		p.take(c.side, &m)
		p.mu.Unlock()
		r.Reply(m, nil)
	default:
		if start.Type != 0 {
			peer.push(start)
		}
		peer.push(out)
		in.sink = r
		p.mu.Unlock()
		peer.cond.Broadcast()
	}
}

// disarm abandons this end's armed exchange, if any, unanswered, and
// withdraws the requests the peer has not taken.
func (c *pipeConn) disarm() {
	p := c.p
	p.mu.Lock()
	if in := &p.lanes[c.side]; in.sink != nil {
		in.sink = nil
		p.lanes[1-c.side].withdraw()
	}
	p.mu.Unlock()
}

// armed reports whether this end has an exchange in flight.
func (c *pipeConn) armed() bool {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return c.p.lanes[c.side].sink != nil
}
