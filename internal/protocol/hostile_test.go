package protocol

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

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
}

// TestHostileShardSumAbortsNamingShard: a shard-sum carrying a NaN must not
// reach the fold. Under the strict quorum the shard is detached and the run
// aborts naming it, on the aggregator and on the sibling.
func TestHostileShardSumAbortsNamingShard(t *testing.T) {
	users, _ := makeUsers(52, 4)
	sc := sweepConfig()
	out := runShardedLinks(t, users, [][]int{{0, 1}, {2, 3}}, AggConfig{Core: sc.Core, Dist: sc.Dist},
		nil, nil, nil,
		func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
			if s == 1 {
				shardSide = &hostileConn{Conn: shardSide, kind: transport.MsgShardSum, nth: 2,
					corrupt: func(m *transport.Message) { m.W0[0] = math.NaN() }}
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
}

// TestValidateLegRejectsPoisonedPartials pins the reduce-leg value checks.
func TestValidateLegRejectsPoisonedPartials(t *testing.T) {
	sum := func(x float64) transport.Message {
		return transport.Message{Type: transport.MsgShardSum, W0: []float64{1, x}, Users: 2}
	}
	resid := func(xi, obj float64) transport.Message {
		return transport.Message{Type: transport.MsgShardResid, Xi: xi, W: []float64{obj}, Users: 2}
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
	} {
		if err := validateLeg(c.m, c.m.Type, 0, 2); (err == nil) != c.ok {
			t.Errorf("%s: validateLeg = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
