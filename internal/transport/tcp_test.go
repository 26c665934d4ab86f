package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"

	"plos/internal/compress"
	"plos/internal/race"
)

// tcpTestPair returns the two ends of one loopback connection.
func tcpTestPair(tb testing.TB) (dialed, accepted Conn) {
	tb.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	return tcpPairOn(tb, l)
}

// tcpPairOn dials l once and returns both ends, closed with the test.
func tcpPairOn(tb testing.TB, l *Listener) (dialed, accepted Conn) {
	tb.Helper()
	dialed, err := Dial(l.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	accepted, err = l.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		_ = dialed.Close()
		_ = accepted.Close()
	})
	return dialed, accepted
}

// updateFrame is the benchmark ledger's update: two dim-562 vectors, 9 087
// bytes on the wire.
func updateFrame(fill float64) Message {
	w, v := make([]float64, 562), make([]float64, 562)
	for i := range w {
		w[i], v[i] = fill+float64(i), fill-float64(i)
	}
	return Message{Type: MsgUpdate, Round: 3, W: w, V: v, Xi: 0.5}
}

// TestTCPSteadyStateAllocs pins the buffer ownership of the TCP path: once a
// connection has carried a frame, sending and receiving an update allocates
// nothing — the frame is built in and read into the connection's buffers and
// the decoded vectors are the connection's, on loan — and neither does a
// control frame.
func TestTCPSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	near, far := tcpTestPair(t)
	exchange := func(m Message) func() {
		return func() {
			if err := near.Send(m); err != nil {
				t.Fatal(err)
			}
			if _, err := far.Recv(); err != nil {
				t.Fatal(err)
			}
		}
	}
	update, control := updateFrame(1), Message{Type: MsgShardNext, Round: 3}
	if n := len(EncodeMessage(update)); n != 9087 {
		t.Fatalf("update frame is %d bytes, the ledger's is 9087", n)
	}
	exchange(update)() // the first frame makes the buffers
	if got := testing.AllocsPerRun(50, exchange(update)); got != 0 {
		t.Errorf("update Send+Recv: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(50, exchange(control)); got != 0 {
		t.Errorf("control Send+Recv: %v allocs, want 0", got)
	}
}

// TestTCPRecvDoesNotAliasBuffer: a decoded Message points neither into the
// connection's payload buffer nor into its reader, and is unchanged until the
// next Recv — with the following frame already read ahead and the payload
// buffer scribbled over — for dense vectors, the telemetry block, the Reason
// string and codec-v4 compressed slots alike. What the next Recv may rewrite
// is exactly the dense vectors, which are on loan; everything else survives
// it.
func TestTCPRecvDoesNotAliasBuffer(t *testing.T) {
	withTelemetry := updateFrame(2)
	withTelemetry.Telemetry = &WireTelemetry{SolveNS: 1_234_567, QPIters: 88, EnergyJ: 0.0625}
	q8 := compress.Config{Quant: 8, TopK: 0.5}
	cases := map[string]Message{
		"dense":     updateFrame(1),
		"telemetry": withTelemetry,
		"reason":    {Type: MsgError, Reason: strings.Repeat("device on fire ", 40)},
		"compressed": {Type: MsgUpdate, Round: 5, Xi: 0.25, Comp: &WireComp{
			W: compVec(q8, 562, 2, 9), V: compVec(compress.Config{Quant: 16}, 562, 1, 10)}},
	}
	for name, sent := range cases {
		t.Run(name, func(t *testing.T) {
			near, far := tcpTestPair(t)
			want := EncodeMessage(sent)
			// The frame after it is dense, at least as long, and already on
			// its way: it lands in the reader, then on the same payload bytes
			// and in the same vector slots.
			next := updateFrame(-7)
			next.W0 = make([]float64, len(want)/8+1)
			for _, m := range []Message{sent, next} {
				if err := near.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			got, err := far.Recv()
			if err != nil {
				t.Fatal(err)
			}
			tc := far.(*tcpConn)
			for i := range tc.recvBuf[:cap(tc.recvBuf)] {
				tc.recvBuf[:cap(tc.recvBuf)][i] = 0xff
			}
			if !bytes.Equal(EncodeMessage(got), want) {
				t.Fatal("the Message changed before the next Recv")
			}
			if _, err := far.Recv(); err != nil {
				t.Fatal(err)
			}
			if len(got.W) > 0 {
				if got.W[0] != next.W[0] {
					t.Error("a dense vector should be the connection's slot, rewritten by the next Recv")
				}
				got.W, got.V, sent.W, sent.V = nil, nil, nil, nil
				want = EncodeMessage(sent)
			}
			if !bytes.Equal(EncodeMessage(got), want) {
				t.Error("something other than the lent vectors changed at the next Recv")
			}
		})
	}
}

// TestTCPHostileLengthPrefix: the 4-byte prefix is a claim, not a fact. A
// peer that announces the largest legal frame, sends ten bytes and hangs up
// is a torn frame that cost the host far less than it announced, and leaves
// the listener serving; one byte more than the limit is refused on the
// prefix alone, before any payload is waited for.
func TestTCPHostileLengthPrefix(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hostile := func(announce uint32, payload int) (Conn, net.Conn) {
		t.Helper()
		raw, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		frame := binary.LittleEndian.AppendUint32(nil, announce)
		if _, err := raw.Write(append(frame, make([]byte, payload)...)); err != nil {
			t.Fatal(err)
		}
		c, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return c, raw
	}

	c, raw := hostile(maxFrame, 10)
	_ = raw.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.Recv()
	runtime.ReadMemStats(&after)
	_ = c.Close()
	if !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "torn frame") {
		t.Errorf("lying prefix then hangup: got %v, want a torn-frame ErrClosed", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-byte claim backed by ten bytes allocated %d bytes", maxFrame, got)
	}

	// The peer stays connected and silent: only the prefix can answer.
	c, raw = hostile(maxFrame+1, 0)
	defer raw.Close()
	_, err = c.Recv()
	_ = c.Close()
	if !errors.Is(err, ErrCodec) {
		t.Errorf("prefix over the limit: got %v, want ErrCodec", err)
	}

	near, far := tcpPairOn(t, l)
	sent := updateFrame(3)
	if err := near.Send(sent); err != nil {
		t.Fatal(err)
	}
	got, err := far.Recv()
	if err != nil || !equalMessages(sent, got) {
		t.Errorf("connection after the hostile ones: err %v, intact %v", err, equalMessages(sent, got))
	}

	// The same claim one level down, on a connection that holds vector slots
	// by now: a well-framed message whose W0 announces 2^23 elements and
	// carries none. The slot grows only to a length the arrived bytes cover,
	// so the frame is refused without the 64 MiB vector.
	lying := EncodeMessage(Message{Type: MsgUpdate})
	binary.LittleEndian.PutUint32(lying[headerSize+4:], 1<<23)
	if _, err := near.(*tcpConn).nc.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(lying))), lying...)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	_, err = far.Recv()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCodec) {
		t.Errorf("lying vector length: got %v, want ErrCodec", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a %d-element claim backed by no bytes allocated %d bytes", 1<<23, got)
	}
}

// TestTCPFrameLargerThanRetained: a frame wider than maxRetained arrives
// through the stepwise-grown one-off buffer intact, and the connection goes
// back to its retained buffers afterwards.
func TestTCPFrameLargerThanRetained(t *testing.T) {
	near, far := tcpTestPair(t)
	big := Message{Type: MsgDone, W0: make([]float64, maxRetained/8+1000)}
	for i := range big.W0 {
		big.W0[i] = float64(i)
	}
	for _, sent := range []Message{updateFrame(1), big, updateFrame(2)} {
		errc := make(chan error, 1)
		go func() { errc <- near.Send(sent) }()
		got, err := far.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if !equalMessages(sent, got) {
			t.Fatalf("%d-byte frame arrived changed", len(EncodeMessage(sent)))
		}
	}
	if tc := far.(*tcpConn); cap(tc.recvBuf) > maxRetained {
		t.Errorf("receiver kept a %d-byte buffer, cap is %d", cap(tc.recvBuf), maxRetained)
	}
	if tc := near.(*tcpConn); cap(tc.sendBuf) > maxRetained {
		t.Errorf("sender kept a %d-byte buffer, cap is %d", cap(tc.sendBuf), maxRetained)
	}
}

// BenchmarkTCPExchange is one 9 KB update echoed over loopback TCP: the
// steady-state frame exchange of a wire round, both directions.
func BenchmarkTCPExchange(b *testing.B) {
	near, far := tcpTestPair(b)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := far.Recv()
			if err != nil || far.Send(m) != nil {
				return
			}
		}
	}()
	update := updateFrame(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := near.Send(update); err != nil {
			b.Fatal(err)
		}
		if _, err := near.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_ = near.Close()
	<-done
}
