package transport

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// answer is one Replier call, its vectors copied out of the loan.
type answer struct {
	m   Message
	err error
}

// replies records every Replier call; it never blocks.
type replies chan answer

func (r replies) Reply(m Message, err error) {
	m.W, m.V = append([]float64(nil), m.W...), append([]float64(nil), m.V...)
	r <- answer{m, err}
}

// next waits for the next call.
func (r replies) next(t *testing.T) answer {
	t.Helper()
	select {
	case a := <-r:
		return a
	case <-time.After(5 * time.Second):
		t.Fatal("the exchange was never answered")
		return answer{}
	}
}

// none checks that no further call comes.
func (r replies) none(t *testing.T) {
	t.Helper()
	select {
	case a := <-r:
		t.Fatalf("a second answer to one exchange: %+v", a)
	case <-time.After(20 * time.Millisecond):
	}
}

// wrapped hides a pipe end's type: a Link over it is an actor.
type wrapped struct{ Conn }

// exchangePaths are the two Link implementations, over the same pipe: the
// node's end bare (native) or wrapped (actor).
var exchangePaths = []struct {
	name string
	wrap func(Conn) Conn
}{
	{"native", func(c Conn) Conn { return c }},
	{"actor", func(c Conn) Conn { return wrapped{c} }},
}

func startRound(round int) Message {
	return Message{Type: MsgStartRound, Round: round, W0: []float64{float64(round), 1}}
}

func params(round int) Message {
	return Message{Type: MsgParams, Round: round, W0: []float64{float64(round), 2}, U: []float64{3, float64(round)}}
}

func update(round int) Message {
	return Message{Type: MsgUpdate, Round: round, W: []float64{float64(round), 4}, V: []float64{5, 6}, Xi: 0.5}
}

// recvWant receives one frame on c and checks it is want.
func recvWant(t *testing.T, c Conn, want Message) {
	t.Helper()
	got, err := c.Recv()
	if err != nil {
		t.Errorf("peer Recv: %v", err)
		return
	}
	if !equalMessages(got, want) {
		t.Errorf("peer received %+v, want %+v", got, want)
	}
}

// closedAnswer checks a is an ErrClosed answer, naming the peer exactly when
// peer is set.
func closedAnswer(t *testing.T, a answer, peer bool) {
	t.Helper()
	if !errors.Is(a.err, ErrClosed) || strings.Contains(a.err.Error(), "peer") != peer {
		t.Errorf("answer = %+v, want ErrClosed naming the peer: %v", a, peer)
	}
}

// TestExchangeContract is the Link contract, one table run against both
// implementations with the same scripted peer on the far end of a pipe.
func TestExchangeContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, node, peer Conn, l *Link, r replies)
	}{
		{"the reply arrives exactly once", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			go func() {
				recvWant(t, peer, startRound(1))
				recvWant(t, peer, params(7))
				_ = peer.Send(update(7))
			}()
			start, out := startRound(1), params(7)
			l.Exchange(&start, &out)
			if a := r.next(t); a.err != nil || !equalMessages(a.m, update(7)) {
				t.Errorf("answer = %+v, want update 7", a)
			}
			r.none(t)
		}},
		{"the peer closes before reading", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			start, out := startRound(1), params(7)
			l.Exchange(&start, &out)
			_ = peer.Close()
			closedAnswer(t, r.next(t), true)
			r.none(t)
		}},
		{"the peer closes after reading", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			start, out := startRound(1), params(7)
			l.Exchange(&start, &out)
			recvWant(t, peer, startRound(1))
			recvWant(t, peer, params(7))
			_ = peer.Close()
			closedAnswer(t, r.next(t), true)
			r.none(t)
		}},
		{"this end closes mid-exchange", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			out := params(7)
			l.Exchange(&Message{}, &out)
			recvWant(t, peer, params(7))
			_ = node.Close()
			closedAnswer(t, r.next(t), false)
			r.none(t)
		}},
		{"an exchange on a closed pipe is answered at once", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			_ = peer.Close()
			out := params(7)
			l.Exchange(&Message{}, &out)
			closedAnswer(t, r.next(t), true)
			r.none(t)
		}},
		{"an unasked extra frame answers the next exchange", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			extraSent := make(chan error, 1)
			go func() {
				recvWant(t, peer, params(1))
				_ = peer.Send(update(1))
				go func() { extraSent <- peer.Send(update(99)) }()
				// The second exchange's params reach the actor's peer; the
				// native path withdraws them, answered before they were taken.
				_, _ = peer.Recv()
			}()
			out := params(1)
			l.Exchange(&Message{}, &out)
			first := r.next(t)
			if first.err != nil || !equalMessages(first.m, update(1)) {
				t.Fatalf("first answer = %+v, want update 1", first)
			}
			time.Sleep(10 * time.Millisecond) // the extra frame is handed over and waits
			if !equalMessages(first.m, update(1)) {
				t.Error("the unasked frame overwrote the answer the node holds")
			}
			out = params(2)
			l.Exchange(&Message{}, &out)
			if a := r.next(t); a.err != nil || !equalMessages(a.m, update(99)) {
				t.Errorf("second answer = %+v, want the unasked update 99", a)
			}
			if err := <-extraSent; err != nil {
				t.Errorf("the unasked Send = %v, want delivered", err)
			}
			r.none(t)
		}},
		{"a peer that never reads does not block the caller", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			returned := make(chan struct{})
			go func() {
				start, out := startRound(1), params(7)
				l.Exchange(&start, &out)
				close(returned)
			}()
			select {
			case <-returned:
			case <-time.After(5 * time.Second):
				t.Fatal("Exchange blocked on a peer that does not read")
			}
			r.none(t)
			_ = node.Close()
			closedAnswer(t, r.next(t), false)
		}},
		{"stats equal a plain Send/Recv run", func(t *testing.T, node, peer Conn, l *Link, r replies) {
			plainNode, plainPeer := Pipe()
			defer plainNode.Close()
			defer plainPeer.Close()
			script := func(c Conn) {
				for k := 0; k < 3; k++ {
					if k == 0 {
						recvWant(t, c, startRound(1))
					}
					recvWant(t, c, params(k))
					_ = c.Send(update(k))
				}
			}
			go script(peer)
			go script(plainPeer)
			for k := 0; k < 3; k++ {
				start, out := Message{}, params(k)
				if k == 0 {
					start = startRound(1)
					if err := plainNode.Send(start); err != nil {
						t.Fatal(err)
					}
				}
				if err := plainNode.Send(out); err != nil {
					t.Fatal(err)
				}
				if _, err := plainNode.Recv(); err != nil {
					t.Fatal(err)
				}
				l.Exchange(&start, &out)
				if a := r.next(t); a.err != nil {
					t.Fatal(a.err)
				}
			}
			if node.Stats() != plainNode.Stats() || peer.Stats() != plainPeer.Stats() {
				t.Errorf("exchange stats node %+v peer %+v; plain run node %+v peer %+v",
					node.Stats(), peer.Stats(), plainNode.Stats(), plainPeer.Stats())
			}
		}},
	}
	for _, path := range exchangePaths {
		for _, row := range rows {
			t.Run(path.name+"/"+row.name, func(t *testing.T) {
				a, peer := Pipe()
				node := path.wrap(a)
				r := make(replies, 4)
				l := new(Link)
				l.Open(node, r)
				defer func() {
					_ = node.Close()
					_ = peer.Close()
					l.Stop()
				}()
				row.run(t, node, peer, l, r)
			})
		}
	}
}

// TestExchangeStopDisarms: a stopped link answers nothing more. The native
// exchange in flight is abandoned with its untaken requests withdrawn, so a
// later frame from the peer waits for a reader instead of reaching the
// Replier.
func TestExchangeStopDisarms(t *testing.T) {
	node, peer := Pipe()
	defer node.Close()
	defer peer.Close()
	r := make(replies, 4)
	var l Link
	l.Open(node, r)
	start, out := startRound(1), params(7)
	l.Exchange(&start, &out)
	if !Armed(node) {
		t.Fatal("an exchange in flight is not armed")
	}
	l.Stop()
	if Armed(node) {
		t.Fatal("Stop left the exchange armed")
	}
	SetOpTimeout(peer, 20*time.Millisecond)
	if _, err := peer.Recv(); !errors.Is(err, ErrTimeout) {
		t.Errorf("peer Recv after Stop = %v, want a timeout: the requests are withdrawn", err)
	}
	if err := peer.Send(update(7)); !errors.Is(err, ErrTimeout) {
		t.Errorf("peer Send after Stop = %v, want a timeout: nothing is armed", err)
	}
	r.none(t)
	if Armed(wrapped{node}) {
		t.Error("Armed reports a wrapped conn")
	}
}

// TestPipeExchangeWithdrawsUntakenRequests: on the native path a frame the
// peer sends before taking the requests answers the exchange, and the
// requests it never took are withdrawn — never delivered, never counted —
// so the caller may reuse their storage once it has the answer.
func TestPipeExchangeWithdrawsUntakenRequests(t *testing.T) {
	node, peer := Pipe()
	defer node.Close()
	defer peer.Close()
	r := make(replies, 4)
	var l Link
	l.Open(node, r)
	defer l.Stop()
	start, out := startRound(1), params(7)
	l.Exchange(&start, &out)
	if err := peer.Send(update(3)); err != nil {
		t.Fatal(err)
	}
	if a := r.next(t); a.err != nil || !equalMessages(a.m, update(3)) {
		t.Fatalf("answer = %+v, want the unasked update 3", a)
	}
	start, out = Message{}, Message{} // the caller's storage, reused
	SetOpTimeout(peer, 20*time.Millisecond)
	if m, err := peer.Recv(); !errors.Is(err, ErrTimeout) {
		t.Errorf("peer Recv = %+v, %v; want a timeout: the requests are withdrawn", m, err)
	}
	if got := node.Stats(); got.MessagesSent != 0 || got.MessagesReceived != 1 {
		t.Errorf("node stats %+v, want nothing sent and one frame received", got)
	}
}
