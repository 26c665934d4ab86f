package transport

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMsgTypeString(t *testing.T) {
	tests := []struct {
		mt   MsgType
		want string
	}{
		{MsgHello, "hello"}, {MsgStartRound, "start-round"}, {MsgParams, "params"},
		{MsgUpdate, "update"}, {MsgDone, "done"}, {MsgError, "error"},
		{MsgType(99), "msgtype(99)"},
	}
	for _, tc := range tests {
		if got := tc.mt.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.mt), got, tc.want)
		}
	}
}

func TestWireSize(t *testing.T) {
	m := Message{Type: MsgParams, W0: make([]float64, 10), U: make([]float64, 10)}
	if got := m.WireSize(); got != 72+160 {
		t.Errorf("WireSize = %d, want 232", got)
	}
	empty := Message{Type: MsgDone}
	if empty.WireSize() != 72 {
		t.Errorf("empty WireSize = %d", empty.WireSize())
	}
	withCfg := Message{Type: MsgHello, Config: &WireConfig{}}
	if withCfg.WireSize() != 72+80 {
		t.Errorf("config WireSize = %d", withCfg.WireSize())
	}
	withTel := Message{Type: MsgUpdate, Telemetry: &WireTelemetry{}}
	if withTel.WireSize() != 72+80 {
		t.Errorf("telemetry WireSize = %d", withTel.WireSize())
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{MessagesSent: 1, MessagesReceived: 2, BytesSent: 10, BytesReceived: 20}
	b := Stats{MessagesSent: 3, MessagesReceived: 4, BytesSent: 30, BytesReceived: 40}
	got := a.Add(b)
	want := Stats{MessagesSent: 4, MessagesReceived: 6, BytesSent: 40, BytesReceived: 60}
	if got != want {
		t.Errorf("Add = %+v", got)
	}
}

func exchange(t *testing.T, a, b Conn) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, err := b.Recv()
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		if m.Type != MsgParams || len(m.W0) != 3 || m.W0[1] != 2 {
			t.Errorf("got %+v", m)
		}
		if err := b.Send(Message{Type: MsgUpdate, W: []float64{9}}); err != nil {
			t.Errorf("Send reply: %v", err)
		}
	}()
	if err := a.Send(Message{Type: MsgParams, W0: []float64{1, 2, 3}}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	reply, err := a.Recv()
	if err != nil {
		t.Fatalf("Recv reply: %v", err)
	}
	if reply.Type != MsgUpdate || reply.W[0] != 9 {
		t.Fatalf("reply = %+v", reply)
	}
	wg.Wait()
}

func TestPipeExchangeAndStats(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	exchange(t, a, b)
	as, bs := a.Stats(), b.Stats()
	if as.MessagesSent != 1 || as.MessagesReceived != 1 {
		t.Errorf("a stats = %+v", as)
	}
	if as.BytesSent != bs.BytesReceived || as.BytesReceived != bs.BytesSent {
		t.Errorf("asymmetric accounting: %+v vs %+v", as, bs)
	}
	wantSent := Message{Type: MsgParams, W0: []float64{1, 2, 3}}.WireSize()
	if as.BytesSent != int64(wantSent) {
		t.Errorf("BytesSent = %d, want %d", as.BytesSent, wantSent)
	}
}

// TestPipeCloseSemantics is the pipe's close contract, one row per case: a
// Close by either end ends every blocked and later operation on both, the
// closing end's errors are ErrClosed and the other end's say "peer", a
// message handed over before the close is delivered once, and Close is
// idempotent.
func TestPipeCloseSemantics(t *testing.T) {
	// blocked runs op on its own goroutine and returns its result channel
	// once op has had time to block.
	blocked := func(op func() error) <-chan error {
		done := make(chan error, 1)
		go func() { done <- op() }()
		time.Sleep(10 * time.Millisecond)
		return done
	}
	recv := func(c Conn) func() error { return func() error { _, err := c.Recv(); return err } }
	send := func(c Conn) func() error { return func() error { return c.Send(Message{Type: MsgDone}) } }
	// want checks err is ErrClosed, naming the peer exactly when peer is set.
	want := func(t *testing.T, what string, err error, peer bool) {
		t.Helper()
		switch {
		case !errors.Is(err, ErrClosed):
			t.Errorf("%s = %v, want ErrClosed", what, err)
		case strings.Contains(err.Error(), "peer") != peer:
			t.Errorf("%s = %v, want peer named: %v", what, err, peer)
		}
	}
	tests := []struct {
		name string
		run  func(t *testing.T, a, b Conn)
	}{
		{"peer close unblocks Recv", func(t *testing.T, a, b Conn) {
			done := blocked(recv(b))
			_ = a.Close()
			want(t, "blocked Recv", <-done, true)
		}},
		{"peer close unblocks Send", func(t *testing.T, a, b Conn) {
			done := blocked(send(b))
			_ = a.Close()
			want(t, "blocked Send", <-done, true)
		}},
		{"Send after peer close fails", func(t *testing.T, a, b Conn) {
			_ = a.Close()
			want(t, "Send", b.Send(Message{Type: MsgDone}), true)
			want(t, "Recv", recv(b)(), true)
		}},
		{"own close fails later ops", func(t *testing.T, a, b Conn) {
			_ = a.Close()
			want(t, "Send", a.Send(Message{}), false)
			want(t, "Recv", recv(a)(), false)
		}},
		{"own close unblocks Recv", func(t *testing.T, a, b Conn) {
			done := blocked(recv(a))
			_ = a.Close()
			want(t, "blocked Recv", <-done, false)
		}},
		{"own close unblocks Send", func(t *testing.T, a, b Conn) {
			done := blocked(send(a))
			_ = a.Close()
			want(t, "blocked Send", <-done, false)
		}},
		{"message before peer close is received once", func(t *testing.T, a, b Conn) {
			sent := make(chan error, 1)
			go func() {
				sent <- b.Send(Message{Type: MsgParams, Round: 7})
				_ = b.Close()
			}()
			if m, err := a.Recv(); err != nil || m.Round != 7 {
				t.Fatalf("Recv = %+v, %v, want round 7", m, err)
			}
			if err := <-sent; err != nil {
				t.Errorf("Send of the received message = %v", err)
			}
			want(t, "Recv after the peer's close", recv(a)(), true)
			want(t, "second Recv after the peer's close", recv(a)(), true)
		}},
		{"a raced message is delivered iff its Send succeeded", func(t *testing.T, a, b Conn) {
			sent := blocked(func() error { return b.Send(Message{Type: MsgParams, Round: 7}) })
			_ = b.Close()
			m, err := a.Recv()
			serr := <-sent
			if (err == nil) != (serr == nil) || err == nil && m.Round != 7 {
				t.Errorf("Recv = %+v, %v; Send = %v: delivered and sent disagree", m, err, serr)
			}
		}},
		{"second close returns nil", func(t *testing.T, a, b Conn) {
			for i := 0; i < 2; i++ {
				if err := a.Close(); err != nil {
					t.Errorf("Close %d of a: %v", i+1, err)
				}
				if err := b.Close(); err != nil {
					t.Errorf("Close %d of b: %v", i+1, err)
				}
			}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe()
			defer a.Close()
			defer b.Close()
			tc.run(t, a, b)
		})
	}
}

func TestTCPExchangeAndStats(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	var serverConn Conn
	accepted := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		serverConn = c
		accepted <- err
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	if err := <-accepted; err != nil {
		t.Fatalf("Accept: %v", err)
	}
	defer serverConn.Close()

	exchange(t, client, serverConn)
	cs := client.Stats()
	if cs.MessagesSent != 1 || cs.MessagesReceived != 1 {
		t.Errorf("client stats = %+v", cs)
	}
	if cs.BytesSent <= 0 || cs.BytesReceived <= 0 {
		t.Errorf("TCP byte accounting missing: %+v", cs)
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			_ = c.Close()
		}
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Recv(); err == nil {
		t.Error("Recv from closed peer should error")
	}
}

func TestAcceptN(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 3
	clients := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(l.Addr())
			if err != nil {
				t.Errorf("Dial %d: %v", i, err)
				return
			}
			clients[i] = c
		}(i)
	}
	conns, err := l.AcceptN(n)
	if err != nil {
		t.Fatalf("AcceptN: %v", err)
	}
	wg.Wait()
	if len(conns) != n {
		t.Fatalf("got %d conns", len(conns))
	}
	for _, c := range conns {
		_ = c.Close()
	}
	for _, c := range clients {
		if c != nil {
			_ = c.Close()
		}
	}
}

func TestFailAfter(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	faulty := FailAfter(a, 2)
	go func() {
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()
	if err := faulty.Send(Message{Type: MsgHello}); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	if err := faulty.Send(Message{Type: MsgHello}); err != nil {
		t.Fatalf("second Send: %v", err)
	}
	if err := faulty.Send(Message{Type: MsgHello}); !errors.Is(err, ErrInjected) {
		t.Errorf("third Send = %v, want ErrInjected", err)
	}
	if _, err := faulty.Recv(); !errors.Is(err, ErrInjected) {
		t.Errorf("Recv after death = %v, want ErrInjected", err)
	}
	if faulty.Stats().MessagesSent != 2 {
		t.Errorf("stats = %+v", faulty.Stats())
	}
}

// Property: pipe transports arbitrary vector payloads losslessly and
// accounts symmetric byte counts.
func TestPropertyPipeLossless(t *testing.T) {
	f := func(w0 []float64, xi float64, round int) bool {
		if len(w0) > 256 {
			w0 = w0[:256]
		}
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		sent := Message{Type: MsgUpdate, Round: round, W0: w0, Xi: xi}
		var got Message
		var recvErr error
		done := make(chan struct{})
		go func() {
			got, recvErr = b.Recv()
			close(done)
		}()
		if err := a.Send(sent); err != nil {
			return false
		}
		<-done
		if recvErr != nil {
			return false
		}
		if got.Round != sent.Round || got.Xi != sent.Xi || len(got.W0) != len(sent.W0) {
			return false
		}
		for i := range got.W0 {
			if got.W0[i] != sent.W0[i] {
				return false
			}
		}
		return a.Stats().BytesSent == b.Stats().BytesReceived
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port should error")
	}
}

func TestListenFailure(t *testing.T) {
	if _, err := Listen("256.256.256.256:99999"); err == nil {
		t.Error("invalid address should error")
	}
}

func TestTCPDoubleClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			_ = c.Close()
		}
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("second Close should repeat the first result: %v", err)
	}
}

func TestFailAfterClose(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	f := FailAfter(a, 10)
	if err := f.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
