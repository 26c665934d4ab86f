package protocol

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/transport"
)

// keepOpen is a client end whose Close does nothing: a device that walks
// away from a connection without closing it, so the node learns of the loss
// only when the rejoin replaces the connection.
type keepOpen struct{ transport.Conn }

func (keepOpen) Close() error { return nil }

// TestLinkActorsExit: no link actor outlives its run. On every plane a run
// returns — normally, aborted by a refused hello, with a dropped device, or
// after a rejoin replaced a connection mid-round — and once its connections
// are closed the goroutine count is back to what it was before the run.
func TestLinkActorsExit(t *testing.T) {
	users, _ := makeUsers(61, 4)
	partition := [][]int{{0, 1}, {2, 3}} // the victim is shard 0's
	const victim = 1

	// A plane runs every device i through device(i, its client end, opts),
	// with its node end wrapped by wrap, under cfg's Dist and device-tier FT,
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
			for _, c := range conns {
				_ = c.Close()
			}
		}
	}
	planes := []struct {
		name string
		run  plane
	}{
		{"RunServer lockstep", server(false)},
		{"RunServer async", server(true)},
		{"RunAggregator and two RunShards", func(t *testing.T, cfg ServerConfig, wrap func(int, transport.Conn) transport.Conn, device func(int, transport.Conn, ClientOptions)) {
			shardCfg := func(s int) ShardConfig {
				f := cfg.FT
				if s != 0 {
					f.Rejoin = nil
				}
				return ShardConfig{Shard: s, FT: f}
			}
			runSharded(t, users, partition, AggConfig{Core: cfg.Core, Dist: cfg.Dist}, shardCfg, wrap,
				func(u int, cc transport.Conn) { device(u, cc, ClientOptions{Seed: int64(u)}) })
		}},
	}

	// An ending wraps device i's client end, or runs it its own way, may
	// wrap its node end (server), and says whether the run went as the row
	// means it to.
	type ending struct {
		cfg    ServerConfig
		server func(i int, sc transport.Conn) transport.Conn
		device func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error)
		check  func(errs []error) string
	}
	honest := func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error) {
		return RunClient(cc, users[i], opts)
	}
	endings := []struct {
		name string
		make func() (ending, func())
	}{
		{"normal", func() (ending, func()) {
			return ending{device: honest, check: func(errs []error) string {
				for _, err := range errs {
					if err != nil {
						return "a device failed: " + err.Error()
					}
				}
				return ""
			}}, func() {}
		}},
		{"refused hello", func() (ending, func()) {
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
		{"dropped device", func() (ending, func()) {
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
		{"rejoin replaces a connection", func() (ending, func()) {
			// The victim stops at its sixth operation, the receive after its
			// first update, and walks away from the connection. It redials
			// once the node's actor is in the matching Send of the next params
			// (the rounds are long), which blocks. The other devices' node ends
			// hold every operation after their first update until the rejoin
			// is queued, so the node, which carries the victim past the round
			// deadline, drains the rejoin before it can finish, and the rejoin
			// retires the connection with its actor mid-job.
			rejoin := make(chan Rejoin, 1)
			inSend, queued := make(chan struct{}), make(chan struct{})
			var attached atomic.Bool // the node answered the rejoin's hello
			var mu sync.Mutex
			var redialed []transport.Conn
			cleanup := func() {
				mu.Lock()
				defer mu.Unlock()
				for _, c := range redialed {
					_ = c.Close()
				}
			}
			cfg := sweepConfig()
			cfg.Dist = core.DistConfig{MaxADMMIter: 20, EpsAbs: 1e-12}
			cfg.FT = FTConfig{Resume: true, Rejoin: rejoin, MaxStale: 1000, RoundTimeout: 50 * time.Millisecond}
			return ending{
				cfg: cfg,
				server: func(i int, sc transport.Conn) transport.Conn {
					if i != victim {
						return &opHookConn{Conn: sc, hook: func(op int) {
							if op >= 6 {
								<-queued
							}
						}}
					}
					return &opHookConn{Conn: sc, hook: func(op int) {
						if op == 6 {
							close(inSend)
						}
					}}
				},
				device: func(i int, cc transport.Conn, opts ClientOptions) (*ClientResult, error) {
					if i != victim {
						return RunClient(cc, users[i], opts)
					}
					dials := 0
					dial := func() (transport.Conn, error) {
						if dials++; dials == 1 {
							return transport.FailAfter(keepOpen{cc}, 5), nil
						}
						<-inSend
						sc, cc := transport.Pipe()
						mu.Lock()
						redialed = append(redialed, sc)
						mu.Unlock()
						hooked := &opHookConn{Conn: sc, hook: func(op int) {
							if op == 2 {
								attached.Store(true)
							}
						}}
						go func() {
							defer close(queued)
							if m, err := hooked.Recv(); err == nil {
								rejoin <- Rejoin{Conn: hooked, Hello: m}
							}
						}()
						return cc, nil
					}
					opts.MaxRedials, opts.RedialDelay, opts.Sleep = 1, time.Millisecond, ftNoSleep
					return RunClientLoop(dial, users[i], opts)
				},
				check: func([]error) string {
					if !attached.Load() {
						return "the rejoin was never attached"
					}
					return ""
				},
			}, cleanup
		}},
	}

	for _, p := range planes {
		for _, e := range endings {
			t.Run(p.name+"/"+e.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				end, cleanup := e.make()
				if end.cfg.Dist.MaxADMMIter == 0 {
					end.cfg = sweepConfig()
				}
				if end.server == nil {
					end.server = func(_ int, sc transport.Conn) transport.Conn { return sc }
				}
				errs := make([]error, len(users))
				var wg sync.WaitGroup
				p.run(t, end.cfg, end.server, func(i int, cc transport.Conn, opts ClientOptions) {
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

// BenchmarkGatherPipes is one lockstep sum leg of a node over 1 000 pipe
// devices that each answer params with a canned 32-dimensional update: the
// exchange path alone — launch, the actor's Send and Recv, the pipe, and
// ingest — with no solve behind it. It reports ns and allocs per exchange.
func BenchmarkGatherPipes(b *testing.B) {
	const devices, dim = 1000, 32
	users := make([]*serverUser, devices)
	var wg sync.WaitGroup
	reply := transport.Message{Type: transport.MsgUpdate, W: make([]float64, dim), V: make([]float64, dim), Xi: 0.5}
	for t := range users {
		sc, cc := transport.Pipe()
		users[t] = &serverUser{conn: sc}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := cc.Recv(); err != nil {
					return
				}
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
	if err := st.gather(0, sumLeg, z); err != nil { // warm: actors started, slots sized
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
