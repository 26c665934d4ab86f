package protocol

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/transport"
)

// keepOpen is a client end whose Close does nothing: a device that walks
// away from a connection without closing it, so the node learns of the loss
// only when the rejoin replaces the connection.
type keepOpen struct{ transport.Conn }

func (keepOpen) Close() error { return nil }

// TestLinkActorsExit: no link outlives its run, on either link path. On
// every plane a run returns — normally, aborted by a refused hello, with a
// dropped device, with a straggler's exchange still in flight, or after a
// rejoin replaced a connection mid-exchange — and once its connections are
// closed the goroutine count is back to what it was before the run. A run
// with a straggler still ends on its round clock. The node's device ends
// are bare pipes, whose links exchange natively and must be left with no
// exchange armed when the run returns, or are wrapped in transport.Observe,
// which puts every link on its actor.
func TestLinkActorsExit(t *testing.T) {
	users, _ := makeUsers(61, 4)
	partition := [][]int{{0, 1}, {2, 3}} // the victim is shard 0's
	const victim = 1

	// A plane runs every device i through device(i, its client end, opts),
	// with its node end wrapped by wrap, under cfg's Dist and device-tier FT,
	// checks that the node left no native exchange armed on its device ends,
	// then closes the links it made.
	type plane func(t *testing.T, cfg ServerConfig, wrap func(i int, sc transport.Conn) transport.Conn,
		device func(i int, cc transport.Conn, opts ClientOptions))
	server := func(async bool) plane {
		return func(t *testing.T, cfg ServerConfig, wrap func(int, transport.Conn) transport.Conn, device func(int, transport.Conn, ClientOptions)) {
			cfg.Async = async
			conns := make([]transport.Conn, len(users))
			for i := range users {
				sc, cc := transport.Pipe()
				conns[i] = wrap(i, sc)
				device(i, cc, ClientOptions{Seed: int64(i), Async: async})
			}
			_, _ = RunServer(conns, cfg)
			for i, c := range conns {
				if transport.Armed(c) {
					t.Errorf("RunServer returned with an exchange armed on device %d's link", i)
				}
				_ = c.Close()
			}
		}
	}
	planes := []struct {
		name  string
		async bool
		run   plane
	}{
		{"RunServer lockstep", false, server(false)},
		{"RunServer async", true, server(true)},
		{"RunAggregator and two RunShards", false, func(t *testing.T, cfg ServerConfig, wrap func(int, transport.Conn) transport.Conn, device func(int, transport.Conn, ClientOptions)) {
			shardCfg := func(s int) ShardConfig {
				f := cfg.FT
				if s != 0 {
					f.Rejoin = nil
				}
				return ShardConfig{Shard: s, FT: f}
			}
			// runSharded checks the shards' device ends for armed exchanges.
			runSharded(t, users, partition, AggConfig{Core: cfg.Core, Dist: cfg.Dist}, shardCfg, wrap,
				func(u int, cc transport.Conn) { device(u, cc, ClientOptions{Seed: int64(u)}) })
		}},
	}
	paths := []struct {
		suffix string // of the plane's name
		wrap   func(i int, sc transport.Conn) transport.Conn
	}{
		{"", func(_ int, sc transport.Conn) transport.Conn { return sc }},
		{" on actors", func(i int, sc transport.Conn) transport.Conn { return transport.Observe(sc, obs.NewRegistry(), i) }},
	}

	// An ending runs device i its own way on its client end (rejoins wrapped
	// as the node's ends are), and says whether the run went as the row
	// means it to.
	type ending struct {
		cfg    ServerConfig
		device func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error)
		check  func(errs []error) string
	}
	honest := func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error) {
		return RunClient(cc, users[i], opts)
	}
	endings := []struct {
		name string
		make func(wrap func(int, transport.Conn) transport.Conn) (ending, func())
	}{
		{"normal", func(func(int, transport.Conn) transport.Conn) (ending, func()) {
			return ending{device: honest, check: func(errs []error) string {
				for _, err := range errs {
					if err != nil {
						return "a device failed: " + err.Error()
					}
				}
				return ""
			}}, func() {}
		}},
		{"refused hello", func(func(int, transport.Conn) transport.Conn) (ending, func()) {
			return ending{device: func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error) {
				if i == 0 {
					cc = &hostileConn{Conn: cc, kind: transport.MsgHello, nth: 1,
						corrupt: func(m *transport.Message) { m.W[0] = math.NaN() }}
				}
				return RunClient(cc, users[i], opts)
			}, check: func(errs []error) string {
				if errs[0] == nil {
					return "the offender trained"
				}
				return ""
			}}, func() {}
		}},
		{"dropped device", func(func(int, transport.Conn) transport.Conn) (ending, func()) {
			return ending{device: func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error) {
				if i == victim {
					cc = transport.FailAfter(cc, 4) // at its first update
				}
				return RunClient(cc, users[i], opts)
			}, check: func(errs []error) string {
				if errs[victim] == nil {
					return "the victim trained"
				}
				return ""
			}}, func() {}
		}},
		{"straggler at the end", func(func(int, transport.Conn) transport.Conn) (ending, func()) {
			// The victim answers its first params and holds its next receive
			// until the run is over, so the node, which carries it past every
			// round deadline (the asynchronous node past its final drain),
			// returns with that exchange in flight and must disarm it. The
			// others hold their first update until the victim's has gone
			// out, so the node takes it in the first round and re-arms the
			// victim: had the final drain taken it, the done would be a plain
			// Send on a pipe the victim never reads again. The last round, or
			// the drain, waits one round timeout for the straggler: the first
			// done reaches an honest device within two of the last update one
			// sent, which is when its last operation, the receive of the done,
			// began.
			release, answered := make(chan struct{}), make(chan struct{})
			var once sync.Once
			answer := func() { once.Do(func() { close(answered) }) }
			var lastOp, firstDone atomic.Int64 // Unix nanoseconds
			cfg := sweepConfig()
			cfg.FT = FTConfig{RoundTimeout: 50 * time.Millisecond, MaxStale: 1000}
			return ending{cfg: cfg,
				device: func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error) {
					if i == victim {
						defer answer() // a victim that fails early frees the others
						return RunClient(&opHookConn{Conn: cc, hook: func(op int) {
							if op == 6 {
								answer()
								<-release
							}
						}}, users[i], opts)
					}
					res, err := RunClient(&opHookConn{Conn: cc, hook: func(op int) {
						if op == 5 {
							<-answered
						}
						lastOp.Store(time.Now().UnixNano())
					}}, users[i], opts)
					firstDone.CompareAndSwap(0, time.Now().UnixNano())
					return res, err
				}, check: func(errs []error) string {
					for i, err := range errs {
						if i != victim && err != nil {
							return "an honest device failed: " + err.Error()
						}
					}
					if errs[victim] == nil {
						return "the straggler trained"
					}
					if end := time.Duration(firstDone.Load() - lastOp.Load()); end > 2*cfg.FT.RoundTimeout {
						return fmt.Sprintf("the run ended %v after the last honest update, past twice the round timeout %v",
							end, cfg.FT.RoundTimeout)
					}
					return ""
				}}, func() { close(release) }
		}},
		{"rejoin replaces a connection", func(wrap func(int, transport.Conn) transport.Conn) (ending, func()) {
			// The victim stops at its sixth operation, the receive after its
			// first update, and walks away from the connection. It redials
			// once the node's next exchange on it is in flight: it takes the
			// next params off the old connection itself, which leaves the
			// native exchange armed and the actor in its receive (the rounds
			// are long). The other devices hold every operation after their
			// first update until the rejoin is queued, so the node, which
			// carries the victim past the round deadline, drains the rejoin
			// before it can finish, and the rejoin retires the connection with
			// its exchange in flight.
			rejoin := make(chan Rejoin, 1)
			queued := make(chan struct{})
			var attached atomic.Bool  // the rejoined device got past the hello reply
			var armedLeft atomic.Bool // the run left an exchange armed on a rejoined link
			var mu sync.Mutex
			var redialed []transport.Conn
			cleanup := func() {
				mu.Lock()
				defer mu.Unlock()
				for _, c := range redialed {
					if transport.Armed(c) {
						armedLeft.Store(true)
					}
					_ = c.Close()
				}
			}
			cfg := sweepConfig()
			cfg.Dist = core.DistConfig{MaxADMMIter: 20, EpsAbs: 1e-12}
			cfg.FT = FTConfig{Resume: true, Rejoin: rejoin, MaxStale: 1000, RoundTimeout: 50 * time.Millisecond}
			return ending{
				cfg: cfg,
				device: func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error) {
					if i != victim {
						return RunClient(&opHookConn{Conn: cc, hook: func(op int) {
							if op >= 6 {
								<-queued
							}
						}}, users[i], opts)
					}
					dials := 0
					dial := func() (transport.Conn, error) {
						if dials++; dials == 1 {
							return transport.FailAfter(keepOpen{cc}, 5), nil
						}
						if m, err := cc.Recv(); err != nil || m.Type != transport.MsgParams {
							return nil, fmt.Errorf("the node's next exchange on the old connection: %v, %v", m.Type, err)
						}
						sc, cc := transport.Pipe()
						mu.Lock()
						redialed = append(redialed, sc)
						mu.Unlock()
						node := wrap(victim, sc)
						go func() {
							defer close(queued)
							if m, err := node.Recv(); err == nil {
								rejoin <- Rejoin{Conn: node, Hello: m}
							}
						}()
						return &opHookConn{Conn: cc, hook: func(op int) {
							if op == 3 {
								attached.Store(true)
							}
						}}, nil
					}
					opts.MaxRedials, opts.RedialDelay, opts.Sleep = 1, time.Millisecond, ftNoSleep
					return RunClientLoop(dial, users[i], opts)
				},
				check: func([]error) string {
					switch {
					case !attached.Load():
						return "the rejoin was never attached"
					case armedLeft.Load():
						return "the node returned with an exchange armed on the rejoined link"
					}
					return ""
				},
			}, cleanup
		}},
	}

	for _, path := range paths {
		for _, p := range planes {
			for _, e := range endings {
				t.Run(p.name+path.suffix+"/"+e.name, func(t *testing.T) {
					base := runtime.NumGoroutine()
					end, cleanup := e.make(path.wrap)
					if end.cfg.Dist.MaxADMMIter == 0 {
						end.cfg = sweepConfig()
					}
					errs := make([]error, len(users))
					var wg sync.WaitGroup
					p.run(t, end.cfg, path.wrap, func(i int, cc transport.Conn, opts ClientOptions) {
						wg.Add(1)
						go func() {
							defer wg.Done()
							defer cc.Close()
							_, errs[i] = end.device(i, cc, opts)
						}()
					})
					cleanup()
					wg.Wait()
					if msg := end.check(errs); msg != "" {
						t.Fatal(msg)
					}
					for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
						if time.Now().After(deadline) {
							buf := make([]byte, 1<<16)
							t.Fatalf("%d goroutines left over after the run, %d before it:\n%s",
								runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
						}
						time.Sleep(5 * time.Millisecond)
					}
				})
			}
		}
	}
}

// BenchmarkGatherPipes is one lockstep sum leg of a node over 1 000 pipe
// devices that each answer params with a canned 32-dimensional update: the
// exchange path alone — launch, the link, the pipe, and ingest — with no
// solve behind it. "pipe" runs the native exchange of bare pipe ends;
// "observe" wraps the node's ends in transport.Observe, which puts every link
// on its actor goroutine. It reports ns and allocs per exchange.
func BenchmarkGatherPipes(b *testing.B) {
	for _, c := range []struct {
		name string
		wrap func(sc transport.Conn, t int) transport.Conn
	}{
		{"pipe", func(sc transport.Conn, _ int) transport.Conn { return sc }},
		{"observe", func(sc transport.Conn, t int) transport.Conn { return transport.Observe(sc, obs.NewRegistry(), t) }},
	} {
		b.Run(c.name, func(b *testing.B) { benchGather(b, c.wrap) })
	}
}

func benchGather(b *testing.B, wrap func(sc transport.Conn, t int) transport.Conn) {
	const devices, dim = 1000, 32
	users := make([]*serverUser, devices)
	var wg sync.WaitGroup
	for t := range users {
		sc, cc := transport.Pipe()
		users[t] = &serverUser{conn: wrap(sc, t)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply := transport.Message{Type: transport.MsgUpdate, W: make([]float64, dim), V: make([]float64, dim), Xi: 0.5}
			for {
				m, err := cc.Recv()
				if err != nil {
					return
				}
				reply.Round = m.Round
				if cc.Send(reply) != nil {
					return
				}
			}
		}()
	}
	st := newServerState(ServerConfig{}.withDefaults(), users, dim, mat.NewVector(dim))
	defer func() {
		for _, u := range users {
			u.retire()
		}
		wg.Wait()
	}()
	for t := range users {
		st.us[t] = mat.NewVector(dim)
	}
	z := mat.NewVector(dim)
	if err := st.gather(0, sumLeg, z); err != nil { // warm: links made, slots sized
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.gather(i+1, sumLeg, z); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	exchanges := float64(b.N * devices)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/exchanges, "ns/exchange")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/exchanges, "allocs/exchange")
}
