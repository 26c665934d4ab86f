package transport

import (
	"errors"
	"math"
	"testing"
	"time"

	"plos/internal/compress"
)

// The lend/borrow contract of Conn (DESIGN.md §12), checked on every
// implementation and under the wrappers that sit between the protocol and
// the wire. Run under -race: the failure mode of a kept vector is a data
// race first and a wrong number second.

// sendThenScribble sends m on c and, the moment Send has returned, overwrites
// m's vectors in place — what a caller that lends its own buffers does next.
func sendThenScribble(c Conn, m Message) <-chan error {
	done := make(chan error, 1)
	go func() {
		err := c.Send(m)
		for _, v := range [][]float64{m.W0, m.U, m.W, m.V} {
			for i := range v {
				v[i] = -1
			}
		}
		done <- err
	}()
	return done
}

func TestSendBorrows(t *testing.T) {
	plain := func(c Conn) Conn { return c }
	pipePair := func(*testing.T) (Conn, Conn) { return Pipe() }
	tcpPair := func(t *testing.T) (Conn, Conn) { return tcpTestPair(t) }
	q8 := mustCompCfg(t, "q8,topk:0.5")
	cases := []struct {
		name         string
		pair         func(*testing.T) (Conn, Conn)
		sender, recv func(Conn) Conn
		handshake    bool
		deliveries   int // how many times the receiver sees the message
	}{
		{name: "pipe", pair: pipePair, sender: plain, recv: plain, deliveries: 1},
		{name: "tcp", pair: tcpPair, sender: plain, recv: plain, deliveries: 1},
		{name: "retry", pair: pipePair, deliveries: 1,
			sender: func(c Conn) Conn { return Retry(c, RetryPolicy{Sleep: noSleep}, nil) },
			recv:   func(c Conn) Conn { return Retry(c, RetryPolicy{Sleep: noSleep}, nil) }},
		{name: "observe", pair: tcpPair, deliveries: 1,
			sender: func(c Conn) Conn { return Observe(c, nil, 0) }, recv: plain},
		{name: "compress", pair: pipePair, handshake: true, deliveries: 1,
			sender: func(c Conn) Conn { return Compress(c, q8, CompressClient, nil) },
			recv:   func(c Conn) Conn { return Compress(c, q8, CompressServer, nil) }},
		// Every Send is duplicated, and the receiver has no Retry to hide it:
		// the asynchronous second delivery must carry the original values
		// although it runs after the caller took its vectors back.
		{name: "chaos-dup", pair: pipePair, recv: plain, deliveries: 2,
			sender: func(c Conn) Conn { return Chaos(c, ChaosConfig{Seed: 3, DupProb: 1, Sleep: noSleep}, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The values a receiver must see: the same stack fed a message
			// nobody touches afterwards.
			deliver := func(scribble bool) []Message {
				a, b := tc.pair(t)
				defer a.Close()
				defer b.Close()
				from, to := tc.sender(a), tc.recv(b)
				if tc.handshake {
					handshake(t, from, to)
				}
				m := updateFrame(4)
				var done <-chan error
				if scribble {
					done = sendThenScribble(from, m)
				} else {
					ch := make(chan error, 1)
					go func() { ch <- from.Send(m) }()
					done = ch
				}
				var got []Message
				for i := 0; i < tc.deliveries; i++ {
					g, err := to.Recv()
					if err != nil {
						t.Fatalf("delivery %d: %v", i, err)
					}
					if i == 0 {
						if err := <-done; err != nil {
							t.Fatal(err)
						}
					}
					// Copy out at once: the next Recv ends this loan.
					g.W, g.V = append([]float64(nil), g.W...), append([]float64(nil), g.V...)
					got = append(got, g)
				}
				return got
			}
			want, got := deliver(false), deliver(true)
			for i := range want {
				if !equalMessages(want[i], got[i]) {
					t.Errorf("delivery %d changed when the sender overwrote its vectors after Send returned", i)
				}
			}
			ref := want[0]
			ref.Seq = 0 // Retry's stamp
			if !tc.handshake && !equalMessages(ref, updateFrame(4)) {
				t.Error("the reference delivery is not the message sent")
			}
		})
	}
}

// TestPipeLendsUntilNextRecv: what a pipe's Recv returned stays intact while
// the peer's next Send is already under way — it fills the endpoint's other
// set — and a Send that timed out handed nothing over and used up neither.
func TestPipeLendsUntilNextRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	recv := func() Message {
		t.Helper()
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	done := sendThenScribble(a, updateFrame(1))
	got1 := recv()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	SetOpTimeout(a, 5*time.Millisecond)
	if err := a.Send(updateFrame(2)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Send with no receiver: got %v, want a timeout", err)
	}
	if !equalMessages(got1, updateFrame(1)) {
		t.Fatal("a timed-out Send changed the message the peer still holds")
	}
	SetOpTimeout(a, 0)

	done = sendThenScribble(a, updateFrame(3)) // parked until the Recv below
	if !equalMessages(got1, updateFrame(1)) {
		t.Fatal("the next Send changed the message the peer still holds")
	}
	got3 := recv()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	done = sendThenScribble(a, updateFrame(4))
	if !equalMessages(got3, updateFrame(3)) {
		t.Fatal("the Send after a timed-out one landed on the set it had filled")
	}
	if got4 := recv(); !equalMessages(got4, updateFrame(4)) || <-done != nil {
		t.Fatal("fourth message arrived changed")
	}
}

// keeperConn breaks the borrow rule on purpose: it keeps the Message it was
// asked to send.
type keeperConn struct {
	Conn
	kept Message
}

func (k *keeperConn) Send(m Message) error { k.kept = m; return nil }

func allNaN(v []float64) bool {
	for _, x := range v {
		if !math.IsNaN(x) {
			return false
		}
	}
	return len(v) > 0
}

// TestPoison: the wrapper is transparent to a consumer that keeps the
// contract and turns a broken one into NaN — a vector kept past the next
// Recv, and a message kept past Send.
func TestPoison(t *testing.T) {
	a, raw := Pipe()
	defer a.Close()
	b := Poison(raw)
	defer b.Close()

	done := sendThenScribble(a, updateFrame(1))
	got1, err := b.Recv()
	if err != nil || <-done != nil {
		t.Fatal(err)
	}
	if !equalMessages(got1, updateFrame(1)) {
		t.Fatal("Poison changed a message in transit")
	}
	done = sendThenScribble(a, Message{Type: MsgShardNext, Round: 2})
	if _, err := b.Recv(); err != nil || <-done != nil {
		t.Fatal(err)
	}
	if !allNaN(got1.W) || !allNaN(got1.V) {
		t.Error("a vector kept past the next Recv still reads as numbers")
	}

	k := &keeperConn{Conn: raw}
	sent := updateFrame(5)
	if err := Poison(k).Send(sent); err != nil {
		t.Fatal(err)
	}
	if !allNaN(k.kept.W) || !allNaN(k.kept.V) {
		t.Error("a transport that kept the borrowed message still reads numbers")
	}
	if !equalMessages(sent, updateFrame(5)) {
		t.Error("Poison wrote into the sender's own vectors")
	}

	// Compressed slots are fresh per frame and pass through untouched.
	comp := Message{Type: MsgUpdate, Comp: &WireComp{W: compVec(compress.Config{Quant: 8}, 16, 1, 1)}}
	done = sendThenScribble(a, comp)
	if got, err := b.Recv(); err != nil || <-done != nil || !equalMessages(got, comp) {
		t.Errorf("compressed frame under Poison: err %v", err)
	}
}
