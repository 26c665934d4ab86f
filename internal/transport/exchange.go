package transport

// Replier receives the outcome of a Link's exchange: the peer's next frame,
// or the error that ended the link. It is called exactly once per exchange,
// on whichever goroutine completed it — the peer's, the closer's, the
// link's actor, or Exchange's caller — so it must not block. The frame's
// vectors are lent until the link's next exchange.
type Replier interface {
	Reply(m Message, err error)
}

// Link runs request/reply exchanges over one Conn, one at a time, and never
// blocks its caller on the peer. On a bare Pipe end it is native: the
// requests are queued for the peer and its next frame answers the exchange
// on the peer's own goroutine, two goroutine handoffs per exchange. On any
// other Conn — TCP, or a pipe under a wrapper — the link's actor goroutine
// sends the requests, receives the answer and reports it, four handoffs per
// exchange. A pipe end with an op timeout also takes the actor, whose Send
// and Recv honor it.
//
// While an exchange is in flight the Link is the conn's only sender and
// receiver. Both paths answer an exchange with the peer's next frame, so a
// frame the peer sends unasked is never lost: it answers the next exchange.
// The paths differ only there: the native path answers at once and
// withdraws the requests the peer never took, the actor sends them before it
// receives.
//
// A Link is made in place by Open and must not be copied after.
type Link struct {
	r    Replier
	pipe *pipeConn // the native path
	// The actor path: the conn, the actor's one-slot job channel, and the
	// job in flight, written only between a report and the next job.
	conn       Conn
	jobs       chan struct{}
	start, out *Message
}

// Open readies l to exchange over c, reporting to r; over a Conn without a
// native exchange it starts l's actor.
func (l *Link) Open(c Conn, r Replier) {
	l.r = r
	if p, ok := c.(*pipeConn); ok && p.opTimeout.Load() <= 0 {
		l.pipe = p
		return
	}
	l.conn, l.jobs = c, make(chan struct{}, 1)
	go l.run()
}

// Exchange sends *start, when its Type is set, then *out, and reports the
// peer's next frame — or the error that ends the link, ErrClosed when either
// end closes — to the Replier exactly once. It returns at once. The two
// messages, vectors and all, are borrowed until the Replier is called, or
// until Stop abandons a native exchange; the caller arms the next exchange
// only after the Replier is called.
func (l *Link) Exchange(start, out *Message) {
	if l.pipe != nil {
		l.pipe.exchange(start, out, l.r)
		return
	}
	l.start, l.out = start, out
	l.jobs <- struct{}{}
}

// Stop disarms the link. A native exchange in flight is abandoned, never
// answered, and its requests the peer has not taken are withdrawn; the
// actor finishes its exchange in flight, which the conn's close ends, and
// exits.
func (l *Link) Stop() {
	if l.pipe != nil {
		l.pipe.disarm()
		return
	}
	close(l.jobs)
}

// run is the actor: per job it sends *start (when its Type is set) and
// *out, receives the answer, and reports it once.
func (l *Link) run() {
	for range l.jobs {
		var m Message
		var err error
		if l.start.Type != 0 {
			err = l.conn.Send(*l.start)
		}
		if err == nil {
			err = l.conn.Send(*l.out)
		}
		if err == nil {
			m, err = l.conn.Recv()
		}
		l.r.Reply(m, err)
	}
}

// Armed reports whether c is a pipe end with a native exchange in flight.
func Armed(c Conn) bool {
	p, ok := c.(*pipeConn)
	return ok && p.armed()
}
