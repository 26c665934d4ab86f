package transport

import (
	"math"
	"strings"
	"sync"
	"testing"

	"plos/internal/compress"
	"plos/internal/obs"
)

func mustCompCfg(t *testing.T, spec string) compress.Config {
	t.Helper()
	cfg, err := compress.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	return cfg
}

// exchange sends m on from while concurrently receiving on to (pipes are
// rendezvous, so a same-goroutine send would deadlock).
func compExchange(t *testing.T, from, to Conn, m Message) Message {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- from.Send(m) }()
	got, err := to.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("send: %v", err)
	}
	return got
}

// handshake runs the hello exchange client→server→client, as the protocol
// layer would, and returns the hello the client saw.
func handshake(t *testing.T, client, server Conn) Message {
	t.Helper()
	compExchange(t, client, server, Message{Type: MsgHello, Dim: 8, Samples: 10})
	return compExchange(t, server, client, Message{Type: MsgHello, Users: 1, Dim: 8})
}

func negotiated(c Conn) bool {
	cc, ok := c.(interface{ Negotiated() bool })
	return ok && cc.Negotiated()
}

func TestCompressDisabledReturnsInner(t *testing.T) {
	a, _ := Pipe()
	if got := Compress(a, compress.Config{}, CompressClient, nil); got != a {
		t.Error("disabled config should return the inner conn unchanged")
	}
	if got := Compress(nil, mustCompCfg(t, "q8"), CompressClient, nil); got != nil {
		t.Error("nil conn should stay nil")
	}
}

func TestCompressNegotiationAndRoundTrip(t *testing.T) {
	cfg := mustCompCfg(t, "q8,topk:0.25")
	a, b := Pipe()
	client := Compress(a, cfg, CompressClient, nil)
	server := Compress(b, cfg, CompressServer, nil)

	reply := handshake(t, client, server)
	if reply.Caps != nil {
		t.Error("negotiation block should be consumed by the wrapper, not surfaced")
	}
	if !negotiated(client) || !negotiated(server) {
		t.Fatal("both ends should be active after the hello exchange")
	}

	// Server→client params, client→server update: payloads must arrive
	// dense (Comp stripped) and close to the originals.
	dim := 64
	w0 := make([]float64, dim)
	u := make([]float64, dim)
	for i := range w0 {
		w0[i] = math.Sin(float64(i + 1))
		u[i] = math.Cos(float64(3*i + 2))
	}
	got := compExchange(t, server, client, Message{Type: MsgParams, Round: 1, W0: w0, U: u})
	if got.Comp != nil {
		t.Error("receiver should strip the compression block")
	}
	if len(got.W0) != dim || len(got.U) != dim {
		t.Fatalf("dense payload lengths: W0=%d U=%d, want %d", len(got.W0), len(got.U), dim)
	}
	// Top-k keeps 25% of coordinates per frame; over one frame the received
	// vector is sparse but the kept entries must match to quantization error.
	maxErr := 0.0
	for i := range w0 {
		if got.W0[i] != 0 {
			if e := math.Abs(got.W0[i] - w0[i]); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 1.0/127.0+1e-12 {
		t.Errorf("kept coordinates drifted beyond q8 step: max err %g", maxErr)
	}

	got = compExchange(t, client, server, Message{Type: MsgUpdate, Round: 1,
		W: w0, V: u, Xi: 0.5})
	if got.Comp != nil || len(got.W) != dim || len(got.V) != dim {
		t.Fatalf("update payload: Comp=%v len(W)=%d len(V)=%d", got.Comp, len(got.W), len(got.V))
	}
	if got.Xi != 0.5 {
		t.Errorf("scalar fields must pass through untouched, Xi=%v", got.Xi)
	}

	// Both directions accounted; q8+topk:0.25 must beat 4x on 64-dim payloads.
	for name, c := range map[string]Conn{"client": client, "server": server} {
		raw, comp := c.(CompressionStats).CompStats()
		if raw != int64(4*compress.DenseWireBytes(dim)) {
			t.Errorf("%s: raw bytes %d, want %d", name, raw, 4*compress.DenseWireBytes(dim))
		}
		if comp <= 0 || float64(raw)/float64(comp) < 4 {
			t.Errorf("%s: ratio %d/%d below 4x", name, raw, comp)
		}
	}
}

// TestCompressDensePeer covers both halves of the interop matrix at the
// transport layer: a compressing node talking to a plain (v3) peer must
// stay fully dense in both directions.
func TestCompressDensePeer(t *testing.T) {
	cfg := mustCompCfg(t, "q16,delta")
	t.Run("v4 client, v3 server", func(t *testing.T) {
		a, b := Pipe()
		client := Compress(a, cfg, CompressClient, nil)
		hello := compExchange(t, client, b, Message{Type: MsgHello, Dim: 4})
		if hello.Caps == nil {
			t.Fatal("client hello should carry the offer")
		}
		// A v3 server echoes a plain hello (it decoded the v4 frame but
		// ignores the caps block it does not understand — here modeled by
		// replying without Caps).
		compExchange(t, b, client, Message{Type: MsgHello, Users: 1})
		if negotiated(client) {
			t.Fatal("client must stay dense without an answer")
		}
		got := compExchange(t, client, b, Message{Type: MsgUpdate, W: []float64{1, 2}})
		if got.Comp != nil || got.Caps != nil || len(got.W) != 2 {
			t.Errorf("update should be dense: %+v", got)
		}
	})
	t.Run("v3 client, v4 server", func(t *testing.T) {
		a, b := Pipe()
		server := Compress(b, cfg, CompressServer, nil)
		compExchange(t, a, server, Message{Type: MsgHello, Dim: 4})
		hello := compExchange(t, server, a, Message{Type: MsgHello, Users: 1})
		if hello.Caps != nil {
			t.Error("server must not answer an offer that never came")
		}
		if negotiated(server) {
			t.Fatal("server must stay dense without an offer")
		}
		got := compExchange(t, server, a, Message{Type: MsgParams, W0: []float64{3, 4}})
		if got.Comp != nil || len(got.W0) != 2 {
			t.Errorf("params should be dense: %+v", got)
		}
	})
}

// TestCompressConfigMismatch: differing configs negotiate down to their
// intersection; disjoint configs fall back to dense.
func TestCompressConfigMismatch(t *testing.T) {
	a, b := Pipe()
	client := Compress(a, mustCompCfg(t, "q8,delta"), CompressClient, nil)
	server := Compress(b, mustCompCfg(t, "q16,delta"), CompressServer, nil)
	handshake(t, client, server)
	// Quant levels differ → quant off; delta on both sides survives.
	if !negotiated(client) || !negotiated(server) {
		t.Fatal("delta∩delta should still negotiate")
	}
	got := compExchange(t, server, client, Message{Type: MsgParams, W0: []float64{1, -1}})
	if len(got.W0) != 2 || got.W0[0] != 1 || got.W0[1] != -1 {
		t.Errorf("delta-only compression must be lossless, got %v", got.W0)
	}

	a2, b2 := Pipe()
	c2 := Compress(a2, mustCompCfg(t, "q8"), CompressClient, nil)
	s2 := Compress(b2, mustCompCfg(t, "q16"), CompressServer, nil)
	reply := handshake(t, c2, s2)
	if negotiated(c2) || negotiated(s2) {
		t.Fatal("disjoint configs must fall back to dense")
	}
	if reply.Caps != nil {
		t.Error("reply caps should not leak to the caller")
	}
}

// TestCompressUnnegotiatedFrameRejected: a compression block arriving on a
// connection that never completed negotiation is a hard error, not a
// silent mis-decode.
func TestCompressUnnegotiatedFrameRejected(t *testing.T) {
	a, b := Pipe()
	server := Compress(b, mustCompCfg(t, "q8"), CompressServer, nil)
	enc := compress.NewEncoder(mustCompCfg(t, "q8"))
	v := enc.Encode(compress.SlotW, []float64{1, 2, 3})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = a.Send(Message{Type: MsgUpdate, Comp: &WireComp{W: v}})
	}()
	_, err := server.Recv()
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "never negotiated") {
		t.Fatalf("want un-negotiated-frame error, got %v", err)
	}
}

// TestCompressAboveRetry pins the documented stack order: Compress above
// Retry. Sequence stamping happens below compression, so a compressed
// frame re-sent by the retry layer is byte-identical and the encoder
// state advances exactly once per logical send.
func TestCompressAboveRetry(t *testing.T) {
	cfg := compress.Config{Quant: 8, TopK: 0.5, Delta: true} // composed frames: Parse refuses the spec
	a, b := Pipe()
	client := Compress(Retry(a, RetryPolicy{Seed: 1}, nil), cfg, CompressClient, nil)
	server := Compress(Retry(b, RetryPolicy{Seed: 2}, nil), cfg, CompressServer, nil)
	handshake(t, client, server)
	if !negotiated(client) || !negotiated(server) {
		t.Fatal("negotiation must survive the retry layer")
	}
	dim := 32
	for round := 1; round <= 5; round++ {
		w0 := make([]float64, dim)
		for i := range w0 {
			w0[i] = math.Sin(float64(round*dim + i))
		}
		got := compExchange(t, server, client, Message{Type: MsgParams, Round: round, W0: w0})
		if got.Round != round || len(got.W0) != dim || got.Comp != nil {
			t.Fatalf("round %d: bad frame %+v", round, got)
		}
		got = compExchange(t, client, server, Message{Type: MsgUpdate, Round: round, W: w0})
		if got.Round != round || len(got.W) != dim {
			t.Fatalf("round %d: bad update %+v", round, got)
		}
	}
	raw, comp := client.(CompressionStats).CompStats()
	if raw == 0 || comp == 0 || raw <= comp {
		t.Errorf("after 5 rounds: raw=%d comp=%d", raw, comp)
	}
}

func TestCompressMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := mustCompCfg(t, "q8")
	a, b := Pipe()
	client := Compress(a, cfg, CompressClient, reg)
	server := Compress(b, cfg, CompressServer, reg)
	handshake(t, client, server)
	compExchange(t, server, client, Message{Type: MsgParams, W0: []float64{1, 2, 3, 4}})
	rawB := reg.CounterValue(obs.MetricWireRawBytes)
	compB := reg.CounterValue(obs.MetricWireCompressedBytes)
	// Sender and receiver share the registry, so both account the frame.
	if rawB != 2*int64(compress.DenseWireBytes(4)) {
		t.Errorf("raw bytes counter %d, want %d", rawB, 2*compress.DenseWireBytes(4))
	}
	if compB <= 0 || compB >= rawB {
		t.Errorf("compressed bytes counter %d (raw %d)", compB, rawB)
	}
}
