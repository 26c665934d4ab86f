package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/transport"
)

// hostileConn scripts a misbehaving peer on top of a real one: the honest
// client (or shard) runs unchanged, and the nth message of the given type it
// sends is rewritten on its way out, as a compromised or buggy peer would
// send it. The first n-1 are honest, so the receiver holds a good previous
// solution when the bad one arrives.
type hostileConn struct {
	transport.Conn
	kind    transport.MsgType
	nth     int
	seen    int
	corrupt func(m *transport.Message)
}

func (h *hostileConn) Send(m transport.Message) error {
	if m.Type == h.kind {
		if h.seen++; h.seen == h.nth {
			// The sender's solver still owns the vectors.
			m.W = append([]float64(nil), m.W...)
			m.V = append([]float64(nil), m.V...)
			m.W0 = append([]float64(nil), m.W0...)
			h.corrupt(&m)
		}
	}
	return h.Conn.Send(m)
}

// TestHostilePeerTable: every malformed update a device can send, on every
// plane that ingests device updates. Nothing may panic; the offender ends
// dropped with a cause naming the violation; and the survivors finish with
// a finite model the coordinator and the devices agree on bit for bit.
func TestHostilePeerTable(t *testing.T) {
	violations := []struct {
		name    string
		corrupt func(m *transport.Message)
		cause   string
	}{
		{"W too short", func(m *transport.Message) { m.W = m.W[:len(m.W)-1] }, "W has 1 and V has 2 entries"},
		{"V too long", func(m *transport.Message) { m.V = append(m.V, 0) }, "W has 2 and V has 3 entries"},
		{"NaN in W", func(m *transport.Message) { m.W[0] = math.NaN() }, "non-finite coordinate in W"},
		{"Inf in V", func(m *transport.Message) { m.V[1] = math.Inf(-1) }, "non-finite coordinate in V"},
		{"NaN Xi", func(m *transport.Message) { m.Xi = math.NaN() }, "non-finite Xi"},
		{"update for another params frame", func(m *transport.Message) { m.Round++ }, "update for params"},
	}
	const offender = 1
	users, _ := makeUsers(51, 4)
	partition := [][]int{{0, 1}, {2, 3}}

	// Each plane returns, by global user index, the server-side view of every
	// device next to the device's own result.
	type outcome struct {
		w0         mat.Vector
		serverW    []mat.Vector
		dropped    []bool
		causes     []error
		clients    []*ClientResult
		clientErrs []error
	}
	ofServer := func(t *testing.T, res *ServerResult, err error, clients []*ClientResult, clientErrs []error) outcome {
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		return outcome{w0: res.Model.W0, serverW: res.Model.W, dropped: res.Dropped, causes: res.DropCause,
			clients: clients, clientErrs: clientErrs}
	}
	// nth is which of the offender's updates is hostile: the second where the
	// barrier guarantees there is one (the first, honest one is then the
	// previous good solution the server must keep), the first in arrival-order
	// mode, where a starved device may get to send only one.
	planes := []struct {
		name string
		nth  int
		run  func(t *testing.T, wrap func(i int, c transport.Conn) transport.Conn) outcome
	}{
		{"RunServer lockstep", 2, func(t *testing.T, wrap func(int, transport.Conn) transport.Conn) outcome {
			res, err, clients, clientErrs := runPipesFT(t, users, sweepConfig(), nil, wrap)
			return ofServer(t, res, err, clients, clientErrs)
		}},
		{"RunServer async", 1, func(t *testing.T, wrap func(int, transport.Conn) transport.Conn) outcome {
			cfg := sweepConfig()
			cfg.Async = true
			res, err, clients, clientErrs := runPipesAsync(t, users, cfg, nil, wrap)
			return ofServer(t, res, err, clients, clientErrs)
		}},
		{"RunShard under RunAggregator", 2, func(t *testing.T, wrap func(int, transport.Conn) transport.Conn) outcome {
			o := outcome{serverW: make([]mat.Vector, len(users)), dropped: make([]bool, len(users)),
				causes:  make([]error, len(users)),
				clients: make([]*ClientResult, len(users)), clientErrs: make([]error, len(users))}
			var wg sync.WaitGroup
			sc := sweepConfig()
			out := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, nil,
				func(u int, cc transport.Conn) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						o.clients[u], o.clientErrs[u] = RunClient(wrap(u, cc), users[u], ClientOptions{Seed: int64(u)})
					}()
				})
			wg.Wait()
			if out.aggErr != nil {
				t.Fatalf("aggregator: %v", out.aggErr)
			}
			o.w0 = out.agg.W0
			for s, res := range out.shards {
				if out.shardErrs[s] != nil {
					t.Fatalf("shard %d: %v", s, out.shardErrs[s])
				}
				if !vecIdentical(res.Model.W0, out.agg.W0) {
					t.Errorf("shard %d final w0 differs from the aggregator's", s)
				}
				for j, u := range partition[s] {
					o.serverW[u], o.dropped[u], o.causes[u] = res.Model.W[j], res.Dropped[j], res.DropCause[j]
				}
			}
			return o
		}},
	}

	for _, p := range planes {
		for _, v := range violations {
			t.Run(p.name+"/"+v.name, func(t *testing.T) {
				o := p.run(t, func(i int, c transport.Conn) transport.Conn {
					if i == offender {
						return &hostileConn{Conn: c, kind: transport.MsgUpdate, nth: p.nth, corrupt: v.corrupt}
					}
					return c
				})
				if !o.dropped[offender] {
					t.Fatal("the offender was not dropped")
				}
				if c := o.causes[offender]; !errors.Is(c, errBadUpdate) || !strings.Contains(c.Error(), v.cause) {
					t.Errorf("offender's drop cause = %v, want errBadUpdate naming %q", c, v.cause)
				}
				if !allFinite(o.w0) {
					t.Errorf("global model is not finite: %v", o.w0)
				}
				for u := range users {
					if u == offender {
						continue
					}
					if o.dropped[u] || o.clientErrs[u] != nil {
						t.Fatalf("survivor %d: dropped %v, device error %v", u, o.dropped[u], o.clientErrs[u])
					}
					if !allFinite(o.serverW[u]) {
						t.Errorf("user %d model is not finite: %v", u, o.serverW[u])
					}
					if !vecIdentical(o.clients[u].W, o.serverW[u]) || !vecIdentical(o.clients[u].W0, o.w0) {
						t.Errorf("user %d: device and coordinator disagree on the final model", u)
					}
				}
			})
		}
	}

	// A hello seeds w0 for every user, so a malformed one cannot be dropped
	// around: the handshake aborts with the cause, and nobody trains. The
	// offender is a labeled device (its init hyperplane is weighted into w0)
	// and the first to say hello, so the peers after it are still blocked
	// sending theirs when the handshake gives up.
	hellos := []struct {
		name    string
		corrupt func(m *transport.Message)
		cause   error
	}{
		{"hello W too short", func(m *transport.Message) { m.W = m.W[:len(m.W)-1] }, ErrDimMismatch},
		{"NaN in hello W", func(m *transport.Message) { m.W[0] = math.NaN() }, errBadHello},
	}
	helloUsers, _ := makeUsers(53, 3)
	const helloOffender = 0
	helloPartition := [][]int{{0, 1}, {2}} // the offender's shard is shard 0
	hostileHello := func(kind transport.MsgType, corrupt func(m *transport.Message)) func(int, transport.Conn) transport.Conn {
		return func(i int, c transport.Conn) transport.Conn {
			if i == helloOffender {
				return &hostileConn{Conn: c, kind: kind, nth: 1, corrupt: corrupt}
			}
			return c
		}
	}
	helloPlanes := []struct {
		name string
		// run returns the error of the node that read the hostile hello and
		// every device's error.
		run func(t *testing.T, corrupt func(m *transport.Message)) (error, []error)
	}{
		{"RunServer lockstep device hello", func(t *testing.T, corrupt func(m *transport.Message)) (error, []error) {
			_, err, _, clientErrs := runPipesFT(t, helloUsers, sweepConfig(), nil, hostileHello(transport.MsgHello, corrupt))
			return err, clientErrs
		}},
		{"RunShard device hello", func(t *testing.T, corrupt func(m *transport.Message)) (error, []error) {
			sc := sweepConfig()
			wrap := hostileHello(transport.MsgHello, corrupt)
			clientErrs := make([]error, len(helloUsers))
			var wg sync.WaitGroup
			out := runSharded(t, helloUsers, helloPartition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, nil,
				func(u int, cc transport.Conn) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, clientErrs[u] = RunClient(wrap(u, cc), helloUsers[u], ClientOptions{Seed: int64(u)})
					}()
				})
			wg.Wait()
			if out.aggErr == nil {
				t.Error("the aggregator finished although shard 0 failed its handshake")
			}
			return out.shardErrs[0], clientErrs
		}},
		{"RunAggregator shard hello", func(t *testing.T, corrupt func(m *transport.Message)) (error, []error) {
			sc := sweepConfig()
			out := runShardedLinks(t, helloUsers, helloPartition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, nil, nil,
				func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
					if s == 1 {
						shardSide = &hostileConn{Conn: shardSide, kind: transport.MsgShardHello, nth: 1, corrupt: corrupt}
					}
					return aggSide, shardSide
				})
			return out.aggErr, out.clientErrs
		}},
	}
	for _, p := range helloPlanes {
		for _, h := range hellos {
			t.Run(p.name+"/"+h.name, func(t *testing.T) {
				err, clientErrs := p.run(t, h.corrupt)
				if !errors.Is(err, h.cause) {
					t.Errorf("handshake error = %v, want %v", err, h.cause)
				}
				for u, e := range clientErrs {
					if e == nil {
						t.Errorf("device %d trained despite the refused hello", u)
					}
				}
			})
		}
	}
}

// TestHostileShardSumAbortsNamingShard: a poisoned shard partial must not
// reach the fold, on either leg: a NaN in shard 1's second shard-sum, or a
// NaN objective partial in its second shard-resid. Under the strict quorum
// the shard is detached and the run aborts naming it, on the aggregator and
// on the sibling.
func TestHostileShardSumAbortsNamingShard(t *testing.T) {
	for _, c := range []struct {
		name    string
		kind    transport.MsgType
		corrupt func(m *transport.Message)
	}{
		{"NaN shard-sum", transport.MsgShardSum, func(m *transport.Message) { m.W0[0] = math.NaN() }},
		{"NaN objective partial", transport.MsgShardResid, func(m *transport.Message) { m.W[0] = math.NaN() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			users, _ := makeUsers(52, 4)
			sc := sweepConfig()
			out := runShardedLinks(t, users, [][]int{{0, 1}, {2, 3}}, AggConfig{Core: sc.Core, Dist: sc.Dist},
				nil, nil, nil,
				func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
					if s == 1 {
						shardSide = &hostileConn{Conn: shardSide, kind: c.kind, nth: 2, corrupt: c.corrupt}
					}
					return aggSide, shardSide
				})
			if !errors.Is(out.aggErr, ErrTooFewActive) {
				t.Fatalf("aggregator error = %v, want ErrTooFewActive", out.aggErr)
			}
			for who, err := range map[string]error{"aggregator": out.aggErr, "sibling shard": out.shardErrs[0]} {
				if err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "non-finite") {
					t.Errorf("%s error does not name shard 1 and the violation: %v", who, err)
				}
			}
			if out.shardErrs[1] == nil {
				t.Error("the offending shard finished despite being detached")
			}
			for u, e := range out.clientErrs {
				if e == nil {
					t.Errorf("client %d finished despite the global abort", u)
				}
			}
		})
	}
}

// TestAdmitRejectsPoisonedReplies is the one admission table: every check
// admit makes on a device update and on each shard reduce leg.
func TestAdmitRejectsPoisonedReplies(t *testing.T) {
	sum := func(x float64) transport.Message {
		return transport.Message{Type: transport.MsgShardSum, W0: []float64{1, x}, Users: 2}
	}
	resid := func(xi, obj float64) transport.Message {
		return transport.Message{Type: transport.MsgShardResid, Xi: xi, W: []float64{obj}, Users: 2}
	}
	update := func(corrupt func(m *transport.Message)) transport.Message {
		m := transport.Message{Type: transport.MsgUpdate, W: []float64{1, 2}, V: []float64{3, 4}, Xi: 0.5}
		corrupt(&m)
		return m
	}
	for _, c := range []struct {
		name string
		m    transport.Message
		ok   bool
	}{
		{"finite sum", sum(2), true},
		{"NaN sum", sum(math.NaN()), false},
		{"Inf sum", sum(math.Inf(1)), false},
		{"finite resid", resid(0, -3), true},
		{"NaN primal", resid(math.NaN(), 1), false},
		{"Inf primal", resid(math.Inf(1), 1), false},
		{"negative primal", resid(-1e-9, 1), false},
		{"NaN objective", resid(1, math.NaN()), false},
		{"Inf objective", resid(1, math.Inf(-1)), false},
		{"finite update", update(func(*transport.Message) {}), true},
		{"W too short", update(func(m *transport.Message) { m.W = m.W[:1] }), false},
		{"V too long", update(func(m *transport.Message) { m.V = append(m.V, 0) }), false},
		{"NaN in W", update(func(m *transport.Message) { m.W[0] = math.NaN() }), false},
		{"Inf in V", update(func(m *transport.Message) { m.V[1] = math.Inf(-1) }), false},
		{"NaN Xi", update(func(m *transport.Message) { m.Xi = math.NaN() }), false},
		{"update for another params frame", update(func(m *transport.Message) { m.Round = 1 }), false},
	} {
		if err := admit(c.m, c.m.Type, 0, 2); (err == nil) != c.ok {
			t.Errorf("%s: admit = %v, want ok=%v", c.name, err, c.ok)
		}
	}

	hello := func(corrupt func(m *transport.Message)) transport.Message {
		m := transport.Message{Type: transport.MsgHello, Dim: 2, W: []float64{1, 2}}
		corrupt(&m)
		return m
	}
	shardHello := func(corrupt func(m *transport.Message)) transport.Message {
		m := transport.Message{Type: transport.MsgShardHello, Dim: 2, W: []float64{1, 2}, U: []float64{3, 4}, Xi: 5}
		corrupt(&m)
		return m
	}
	restoreHello := func(corrupt func(m *transport.Message)) transport.Message {
		m := transport.Message{Type: transport.MsgShardHello, Labeled: 1, Dim: 2, W: []float64{1, 2}, V: []float64{9, 8}}
		corrupt(&m)
		return m
	}
	for _, c := range []struct {
		name string
		m    transport.Message
		ok   bool
	}{
		{"device hello", hello(func(*transport.Message) {}), true},
		{"zero dimension", hello(func(m *transport.Message) { m.Dim, m.W = 0, nil }), false},
		{"W too long", hello(func(m *transport.Message) { m.W = append(m.W, 0) }), false},
		{"Inf in W", hello(func(m *transport.Message) { m.W[1] = math.Inf(1) }), false},
		{"shard hello", shardHello(func(*transport.Message) {}), true},
		{"shard hello U too short", shardHello(func(m *transport.Message) { m.U = m.U[:1] }), false},
		{"NaN in shard hello U", shardHello(func(m *transport.Message) { m.U[0] = math.NaN() }), false},
		{"NaN shard init weight", shardHello(func(m *transport.Message) { m.Xi = math.NaN() }), false},
		{"negative shard init weight", shardHello(func(m *transport.Message) { m.Xi = -1 }), false},
		{"restore hello", restoreHello(func(*transport.Message) {}), true},
		{"NaN in restored history", restoreHello(func(m *transport.Message) { m.V[1] = math.NaN() }), false},
	} {
		if err := admitHello(c.m); (err == nil) != c.ok {
			t.Errorf("%s: admitHello = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// aggFuzzDim is the feature dimension of FuzzAggregatorSession's fake shards.
const aggFuzzDim = 2

// decodeShardScripts turns fuzz bytes into the two fake shards' answers. A
// frame is a header (bit 0: shard; bits 1-2: 0 shard-sum, 1 shard-resid, 2
// MsgError, 3 shard-sum), then Round, Users and Labeled as signed bytes, a
// vector length (mod 4), a float64 scalar (a residual's primal partial) and
// the vector. Finite values are clamped to |x| <= 1e300 so that no sum of
// admitted partials overflows: admit checks finiteness, not magnitude.
func decodeShardScripts(data []byte) [2][]transport.Message {
	var out [2][]transport.Message
	for len(data) >= 13 && len(out[0])+len(out[1]) < 64 {
		h, n := data[0], int(data[4]%4)
		if len(data) < 13+8*n {
			break
		}
		m := transport.Message{Round: int(int8(data[1])), Users: int(int8(data[2])), Labeled: int(int8(data[3]))}
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = fuzzFloat(data[13+8*i:])
		}
		switch h >> 1 & 3 {
		case 1:
			m.Type, m.Xi, m.W = transport.MsgShardResid, fuzzFloat(data[5:]), vec
		case 2:
			m.Type, m.Reason = transport.MsgError, "fuzz"
		default:
			m.Type, m.W0 = transport.MsgShardSum, vec
		}
		out[h&1] = append(out[h&1], m)
		data = data[13+8*n:]
	}
	return out
}

// fuzzFloat reads a fuzzed float64: NaN and ±Inf as they come, a finite value
// clamped to |x| <= 1e300.
func fuzzFloat(b []byte) float64 {
	x := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if !math.IsNaN(x) && math.Abs(x) > 1e300 && !math.IsInf(x, 0) {
		x = math.Copysign(1e300, x)
	}
	return x
}

// encodeShardFrame is decodeShardScripts' inverse for one frame: the seeds.
func encodeShardFrame(shard, kind int, round, users int8, xi float64, vec ...float64) []byte {
	b := []byte{byte(shard | kind<<1), byte(round), byte(users), 0, byte(len(vec))}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(xi))
	for _, x := range vec {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// FuzzAggregatorSession runs a live RunAggregator, with a reduce deadline,
// against two fake shards over pipes. Each sends a valid fresh hello, then
// answers every aggregator message with its next scripted frame —
// shard-sum, shard-resid or MsgError, with fuzzed round, counts, vector
// length and values — and, its script spent, keeps receiving without
// answering. Whatever the script, the run must return within a fixed wall
// deadline, must not panic, and must end on a finite w0 when it succeeds.
func FuzzAggregatorSession(f *testing.F) {
	var honest []byte
	for round := 0; round < 2; round++ {
		for iter := int8(0); iter < 2; iter++ {
			for s := 0; s < 2; s++ {
				honest = append(honest, encodeShardFrame(s, 0, iter, 1, 0, 0.5, -0.25)...)
				honest = append(honest, encodeShardFrame(s, 1, iter, 1, 0.1, 1)...)
			}
		}
	}
	f.Add(honest)
	f.Add([]byte{})
	poisoned := append(encodeShardFrame(1, 0, 0, 1, 0, math.NaN(), 1), honest...)
	f.Add(poisoned)

	f.Fuzz(func(t *testing.T, data []byte) {
		scripts := decodeShardScripts(data)
		aggSide := make([]transport.Conn, 2)
		var wg sync.WaitGroup
		for s := range scripts {
			a, c := transport.Pipe()
			aggSide[s] = a
			wg.Add(1)
			go func(s int, c transport.Conn) {
				defer wg.Done()
				defer c.Close()
				hello := transport.Message{Type: transport.MsgShardHello, Round: s, Dim: aggFuzzDim,
					Users: 1, Samples: 1, W: []float64{1, 0}, U: []float64{1, 0}, Xi: 1}
				if c.Send(hello) != nil {
					return
				}
				for next := 0; ; {
					m, err := c.Recv()
					if err != nil || m.Type == transport.MsgShardDone || m.Type == transport.MsgError {
						return
					}
					if m.Type == transport.MsgShardHello || next == len(scripts[s]) {
						continue // the hello reply, or a spent script: listen only
					}
					if c.Send(scripts[s][next]) != nil {
						return
					}
					next++
				}
			}(s, c)
		}
		type outcome struct {
			res *AggResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := RunAggregator(aggSide, AggConfig{
				Core: core.Config{Lambda: 1, MaxCCCPIter: 2},
				Dist: core.DistConfig{MaxADMMIter: 2},
				FT:   AggFTConfig{ReduceTimeout: 20 * time.Millisecond, ShardQuorum: 1, MaxStale: 1},
			})
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err == nil && (len(o.res.W0) != aggFuzzDim || !allFinite(o.res.W0)) {
				t.Fatalf("run succeeded on a non-finite or misshapen w0 %v", o.res.W0)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("RunAggregator outlived its wall deadline")
		}
		for _, c := range aggSide {
			_ = c.Close()
		}
		wg.Wait()
	})
}

// serverFuzzDevices and serverFuzzDim shape the fake fleets of
// FuzzServerSession and FuzzShardSession.
const serverFuzzDevices, serverFuzzDim = 2, 2

// A device script frame: what a fake device answers one params with.
const (
	fuzzUpdate = iota // an update with the frame's round offset, shape and values
	fuzzError         // MsgError
	fuzzClose         // the device closes its connection
	fuzzExtra         // the update, then a copy of it nobody asked for
)

// deviceFrame is one scripted answer of a fake device: m, and when extra is
// set a copy of it sent right after, unasked.
type deviceFrame struct {
	m     transport.Message
	extra bool
}

// decodeDeviceScripts turns fuzz bytes into the fake devices' answers. A
// frame is a header (bit 0: device; bits 1-2: the frame kind, fuzzUpdate to
// fuzzExtra), a signed byte that offsets the Round of the params it answers
// (0 echoes it, as an honest device does), the lengths of W and V (each mod
// 4), a float64 Xi, then W's and V's values, read by fuzzFloat.
func decodeDeviceScripts(data []byte) [serverFuzzDevices][]deviceFrame {
	var out [serverFuzzDevices][]deviceFrame
	for len(data) >= 12 && len(out[0])+len(out[1]) < 64 {
		h, nw, nv := data[0], int(data[2]%4), int(data[3]%4)
		if len(data) < 12+8*(nw+nv) {
			break
		}
		kind := int(h >> 1 & 3)
		m := transport.Message{Type: transport.MsgUpdate, Round: int(int8(data[1])), Xi: fuzzFloat(data[4:])}
		switch kind {
		case fuzzError:
			m = transport.Message{Type: transport.MsgError, Reason: "fuzz"}
		case fuzzClose:
			m = transport.Message{}
		default:
			m.W, m.V = make([]float64, nw), make([]float64, nv)
			for i := range m.W {
				m.W[i] = fuzzFloat(data[12+8*i:])
			}
			for i := range m.V {
				m.V[i] = fuzzFloat(data[12+8*(nw+i):])
			}
		}
		out[h&1] = append(out[h&1], deviceFrame{m: m, extra: kind == fuzzExtra})
		data = data[12+8*(nw+nv):]
	}
	return out
}

// encodeDeviceFrame is decodeDeviceScripts' inverse for one frame: the seeds.
func encodeDeviceFrame(device, kind int, round int8, xi float64, w, v []float64) []byte {
	b := []byte{byte(device | kind<<1), byte(round), byte(len(w)), byte(len(v))}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(xi))
	for _, x := range append(append([]float64(nil), w...), v...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// deviceFuzzSeeds are both device fuzzers' seeds: an honest script, an empty
// one, and one whose first frame carries a NaN.
func deviceFuzzSeeds(f *testing.F) {
	var honest []byte
	for k := 0; k < 8; k++ {
		for d := 0; d < serverFuzzDevices; d++ {
			honest = append(honest, encodeDeviceFrame(d, fuzzUpdate, 0, 0.1,
				[]float64{0.5, -0.25}, []float64{0.1, 0.2})...)
		}
	}
	f.Add(honest)
	f.Add([]byte{})
	f.Add(append(encodeDeviceFrame(1, fuzzUpdate, 0, 0, []float64{math.NaN(), 1}, []float64{0, 0}), honest...))
	f.Add(append(encodeDeviceFrame(0, fuzzExtra, 0, 0.1, []float64{0.5, -0.25}, []float64{0.1, 0.2}), honest...))
}

// fakeDevice plays one scripted device on its end of a pipe: a valid hello,
// then each params answered with the script's next frame, until the script
// is spent or closes, the node ends the run, or the link fails.
func fakeDevice(c transport.Conn, script []deviceFrame, async bool) {
	defer c.Close()
	hello := transport.Message{Type: transport.MsgHello, Dim: serverFuzzDim, Samples: 1, Labeled: 1,
		W: []float64{1, 0}}
	if async {
		hello.Users = asyncHello
	}
	if c.Send(hello) != nil {
		return
	}
	for next := 0; ; next++ {
		var m transport.Message
		for m.Type != transport.MsgParams {
			var err error
			m, err = c.Recv()
			if err != nil || m.Type == transport.MsgDone || m.Type == transport.MsgError {
				return
			}
			// Anything else is the hello reply or a start-round.
		}
		if next == len(script) || script[next].m.Type == 0 {
			return // a spent script, or a scripted close
		}
		answer := script[next].m
		if answer.Type == transport.MsgUpdate {
			answer.Round += m.Round
		}
		if c.Send(answer) != nil || script[next].extra && c.Send(answer) != nil {
			return
		}
	}
}

// FuzzServerSession runs a live RunServer, lockstep and then asynchronous,
// against two fake devices over pipes. Each sends a valid hello, then
// answers every params with its next scripted frame — an update of fuzzed
// round, shape and values (NaN, ±Inf, up to 1e300), possibly followed by a
// copy nobody asked for, a MsgError, or a close — and closes once its script
// is spent. Whatever the script, each run must return within a fixed wall
// deadline, must not panic, and must end on a finite w0 of the fleet's
// dimension when it succeeds.
func FuzzServerSession(f *testing.F) {
	deviceFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		scripts := decodeDeviceScripts(data)
		for _, async := range []bool{false, true} {
			serverSide := make([]transport.Conn, serverFuzzDevices)
			var wg sync.WaitGroup
			for d := range scripts {
				a, c := transport.Pipe()
				serverSide[d] = a
				wg.Add(1)
				go func(d int, c transport.Conn) {
					defer wg.Done()
					fakeDevice(c, scripts[d], async)
				}(d, c)
			}
			type outcome struct {
				res *ServerResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := RunServer(serverSide, ServerConfig{
					Core:  core.Config{Lambda: 1, MaxCCCPIter: 2},
					Dist:  core.DistConfig{MaxADMMIter: 2},
					Async: async,
					FT:    FTConfig{RoundTimeout: 20 * time.Millisecond, MaxStale: 1},
				})
				done <- outcome{res, err}
			}()
			select {
			case o := <-done:
				if o.err == nil && (len(o.res.Model.W0) != serverFuzzDim || !allFinite(o.res.Model.W0)) {
					t.Fatalf("async %v: run succeeded on a non-finite or misshapen w0 %v", async, o.res.Model.W0)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("async %v: RunServer outlived its wall deadline", async)
			}
			for _, c := range serverSide {
				_ = c.Close()
			}
			wg.Wait()
		}
	})
}

// FuzzShardSession runs a live RunShard, with a round deadline, between two
// fake devices over bare pipes (FuzzServerSession's scripts: fuzzed round,
// shape and values, MsgError, closes, unasked extra updates) and a scripted
// honest aggregator: two CCCP rounds of two ADMM iterations, each answered
// with a fixed finite z, then shard-done. Whatever the devices do, the run
// must return within a fixed wall deadline and must not panic, every
// shard-sum the aggregator receives must be finite and of the fleet's
// dimension, and a successful run must end on finite models.
func FuzzShardSession(f *testing.F) {
	deviceFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		scripts := decodeDeviceScripts(data)
		deviceSide := make([]transport.Conn, serverFuzzDevices)
		var wg sync.WaitGroup
		for d := range scripts {
			a, c := transport.Pipe()
			deviceSide[d] = a
			wg.Add(1)
			go func(d int, c transport.Conn) {
				defer wg.Done()
				fakeDevice(c, scripts[d], false)
			}(d, c)
		}
		aggSide, shardSide := transport.Pipe()
		bad := make(chan string, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer aggSide.Close()
			if msg := scriptedAggregator(aggSide); msg != "" {
				bad <- msg
			}
		}()
		type outcome struct {
			res *ServerResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := RunShard(shardSide, deviceSide, ShardConfig{
				FT: FTConfig{RoundTimeout: 20 * time.Millisecond, MaxStale: 1},
			})
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err == nil {
				for _, w := range append([]mat.Vector{o.res.Model.W0}, o.res.Model.W...) {
					if w != nil && !allFinite(w) {
						t.Fatalf("run succeeded on a non-finite model %v", w)
					}
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatal("RunShard outlived its wall deadline")
		}
		_ = shardSide.Close()
		for _, c := range deviceSide {
			_ = c.Close()
		}
		wg.Wait()
		select {
		case msg := <-bad:
			t.Fatal(msg)
		default:
		}
	})
}

// scriptedAggregator drives one shard over agg as an honest aggregator would
// (FuzzShardSession) and reports a shard-sum that is not finite or of the
// fleet's dimension. It stops quietly when the shard fails or leaves.
func scriptedAggregator(agg transport.Conn) string {
	if m, err := agg.Recv(); err != nil || m.Type != transport.MsgShardHello {
		return ""
	}
	wire := &transport.WireConfig{Lambda: 1, Cl: 1, Cu: 0.1, Epsilon: 1e-3, Rho: 1, MaxCutIter: 2, QPMaxIter: 20}
	if agg.Send(transport.Message{Type: transport.MsgShardHello, Users: serverFuzzDevices, Dim: serverFuzzDim, Config: wire}) != nil {
		return ""
	}
	w0, z := []float64{1, 0}, []float64{0.5, -0.5}
	const rounds, iters = 2, 2
	for round := 0; round < rounds; round++ {
		if agg.Send(transport.Message{Type: transport.MsgShardRound, Round: round, W0: w0, Xi: 1}) != nil {
			return ""
		}
		for iter := 0; iter < iters; iter++ {
			sum, err := agg.Recv()
			if err != nil || sum.Type != transport.MsgShardSum {
				return ""
			}
			if len(sum.W0) != serverFuzzDim || !allFinite(sum.W0) {
				return fmt.Sprintf("shard-sum of iteration %d is %v", iter, sum.W0)
			}
			if agg.Send(transport.Message{Type: transport.MsgShardZ, Round: iter, W0: z}) != nil {
				return ""
			}
			if m, err := agg.Recv(); err != nil || m.Type != transport.MsgShardResid {
				return ""
			}
			if iter+1 < iters && agg.Send(transport.Message{Type: transport.MsgShardNext, Round: iter + 1}) != nil {
				return ""
			}
		}
	}
	_ = agg.Send(transport.Message{Type: transport.MsgShardDone, Round: rounds, W0: w0, Xi: 1})
	return ""
}
