package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"plos/internal/compress"
	"plos/internal/core"
	"plos/internal/eval"
	"plos/internal/mat"
	"plos/internal/protocol"
	"plos/internal/transport"
)

// Trainer shapes: which entry point of the program a workload drives.
const (
	trainCentral = "central" // core.TrainCentralized
	trainDist    = "dist"    // core.TrainDistributed
	trainWire    = "wire"    // protocol.RunServer + RunClient over loopback TCP
	trainShard   = "shard"   // protocol.RunAggregator + RunShard, pipe devices
)

// spec fixes one workload: cohort shape and every iteration budget. The
// tolerances are set so the budgets bind (see coreConfig), which makes a
// training the same amount of work whatever the seed.
type spec struct {
	Name, Why string
	Trainer   string
	// Users HAR participants of 2·PerClass samples each in Dim+1 dimensions
	// (bias-augmented); Providers of them label a Rate share of their rows.
	Users, PerClass, Dim, Providers int
	Rate                            float64
	// CCCP rounds × ADMM iterations (distributed) or × Cut rounds
	// (centralized); Cut and QP cap each local solve.
	CCCP, ADMM, Cut, QP int
	Compress            string // transport.Compress spec negotiated on both ends; "" = dense
	Async               bool   // DJAM arrival-order folds
	Shards              int    // trainShard only
	// Manual keeps a workload out of BENCHMARK.json: the driver's time limit
	// pays for five workloads of 20 s runs or six of 15 s, and the longer run
	// is the steadier one. A manual workload runs by name or under "all".
	Manual bool
}

// specs is the workload catalogue. Sizes are fixed: a result is comparable
// with another only at the same spec.
var specs = []spec{
	{Name: "central-cut", Trainer: trainCentral,
		Why:   "Algorithm 1 on one host: qp Gram growth, budget projection, FISTA and MostViolated do all the work; no frame is ever encoded",
		Users: 30, PerClass: 50, Dim: 561, Providers: 10, Rate: 0.10, CCCP: 5, Cut: 10, QP: 200},
	{Name: "dist-inproc", Trainer: trainDist,
		Why:   "Algorithm 2 in process: heavy Worker.Solve simplex duals under the parallel pool, Consensus.Step between; zero codec, zero sockets, so it bypasses every wire change",
		Users: 20, PerClass: 50, Dim: 561, Providers: 10, Rate: 0.25, CCCP: 5, ADMM: 10, Cut: 5, QP: 100},
	{Name: "wire-dense", Trainer: trainWire,
		Why:   "lockstep fleet over loopback TCP with light solves and wide vectors: join-time LocalInit, codec, TCP, barrier gather and server fold dominate",
		Users: 32, PerClass: 6, Dim: 561, Providers: 16, Rate: 0.25, CCCP: 3, ADMM: 20, Cut: 3, QP: 30},
	{Name: "wire-q8topk", Trainer: trainWire,
		Why:   "the wire-dense fleet with q8,topk:0.75 negotiated: few bytes, heavy encode, so a dense-path gain that taxes the compressed path shows as opposite moves on the pair",
		Users: 32, PerClass: 6, Dim: 561, Providers: 16, Rate: 0.25, CCCP: 3, ADMM: 20, Cut: 3, QP: 30,
		Compress: "q8,topk:0.75", Manual: true},
	{Name: "wire-async", Trainer: trainWire,
		Why:   "the wire-dense fleet in DJAM mode: no round clock, one AsyncFold per arrival, per-device snapshots; a round-engine change must hold here as well as on wire-dense",
		Users: 32, PerClass: 6, Dim: 561, Providers: 16, Rate: 0.25, CCCP: 2, ADMM: 30, Cut: 3, QP: 30,
		Async: true},
	{Name: "shard-plane", Trainer: trainShard,
		Why:   "aggregator plus two shards of tiny pipe devices: hello fan-out, SumXU/Fold, the cross-shard reduce and per-solve fixed overhead dominate; arithmetic and codec do almost nothing",
		Users: 2000, PerClass: 2, Dim: 31, Providers: 1000, Rate: 0.5, CCCP: 2, ADMM: 10, Cut: 2, QP: 30,
		Shards: 2},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a spec to smoke-test size: same code paths, a fraction of
// the work. Quick results are checked for structure only, never for quality.
func (s spec) quick() spec {
	s.Users = 6
	if s.Trainer == trainShard {
		s.Users = 16
	}
	s.Providers = s.Users / 2
	s.Dim = 23
	s.PerClass = min(s.PerClass, 4)
	s.CCCP = 2
	s.ADMM = min(s.ADMM, 3)
	s.Cut = min(s.Cut, 3)
	s.QP = 30
	return s
}

func (s spec) coreConfig(seed int64) core.Config {
	// Epsilon and CCCPTol far below anything a capped solve reaches, so
	// MaxCutIter and MaxCCCPIter are what end the loops.
	return core.Config{Lambda: 100, Cl: 1, Cu: 0.2, Seed: seed,
		MaxCCCPIter: s.CCCP, MaxCutIter: s.Cut, QPMaxIter: s.QP,
		Epsilon: 1e-9, CCCPTol: 1e-12}
}

func (s spec) distConfig() core.DistConfig {
	return core.DistConfig{Rho: 1, EpsAbs: 1e-12, MaxADMMIter: s.ADMM}
}

// wantRounds is the pinned count of lockstep iterations (cut rounds on the
// centralized trainer, arrival-order folds on the asynchronous one) and
// wantSolves the local solves they add up to.
func (s spec) wantRounds() int {
	switch {
	case s.Trainer == trainCentral:
		return s.CCCP * s.Cut
	case s.Async:
		return s.CCCP * s.ADMM * s.Users
	}
	return s.CCCP * s.ADMM
}

func (s spec) wantSolves() int {
	if s.Trainer == trainCentral || s.Async {
		return s.wantRounds()
	}
	return s.wantRounds() * s.Users
}

// inputs are everything a training receives: generated from the seed alone.
type inputs struct {
	users  []core.UserData
	truths [][]float64
}

func (s spec) generate(seed int64) (*inputs, error) {
	users, truths, err := eval.HARCohort(eval.CompressionOptions{
		CohortOptions: eval.CohortOptions{Seed: seed},
		Users:         s.Users, PerClass: s.PerClass, Dim: s.Dim,
		Providers: s.Providers, Rate: s.Rate})
	if err != nil {
		return nil, err
	}
	return &inputs{users: users, truths: truths}, nil
}

// fleet is the connected link set of a wire or shard training. Set-up dials
// it; the timed training only talks over it.
type fleet struct {
	rec      *recorder // nil when tracing is off
	listener *transport.Listener
	// server[i]/device[i] are the two wrapped ends of device link i;
	// agg[s]/shard[s] those of aggregator link s. raw holds the server-side
	// (and agg-side) bare connections, for byte accounting and closing.
	server, device, agg, shard []transport.Conn
	raw, rawAgg, closers       []transport.Conn
}

func (f *fleet) close() {
	if f == nil {
		return
	}
	for _, c := range f.closers {
		_ = c.Close()
	}
	if f.listener != nil {
		_ = f.listener.Close()
	}
}

// tcpPair dials and accepts one loopback link. Links are made one at a time
// so slot order, and with it every floating-point fold, is the same each run.
func tcpPair(l *transport.Listener) (accepted, dialed transport.Conn, err error) {
	if dialed, err = transport.Dial(l.Addr()); err != nil {
		return nil, nil, err
	}
	if accepted, err = l.Accept(); err != nil {
		_ = dialed.Close()
		return nil, nil, err
	}
	return accepted, dialed, nil
}

// connect builds the workload's links; nil for the in-process trainers,
// which have none. rec, when non-nil, wraps both ends of every link.
func (s spec) connect(rec *recorder) (*fleet, error) {
	if s.Trainer != trainWire && s.Trainer != trainShard {
		return nil, nil
	}
	comp, err := compress.Parse(s.Compress)
	if err != nil {
		return nil, err
	}
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{listener: l, rec: rec}
	for i := 0; i < s.Users; i++ {
		var sc, dc transport.Conn
		if s.Trainer == trainWire {
			if sc, dc, err = tcpPair(l); err != nil {
				f.close()
				return nil, err
			}
		} else {
			sc, dc = transport.Pipe()
		}
		f.raw = append(f.raw, sc)
		f.closers = append(f.closers, sc, dc)
		// The span wrapper sits outermost, at the boundary the protocol
		// layer calls, so a send span covers compression, codec and write.
		pipe := s.Trainer != trainWire
		f.server = append(f.server, rec.wrap(transport.Compress(sc, comp, transport.CompressServer, nil), i, sideServer, pipe))
		f.device = append(f.device, rec.wrap(transport.Compress(dc, comp, transport.CompressClient, nil), i, sideDevice, pipe))
	}
	for k := 0; k < s.Shards; k++ {
		ac, shc, err := tcpPair(l)
		if err != nil {
			f.close()
			return nil, err
		}
		f.rawAgg = append(f.rawAgg, ac)
		f.closers = append(f.closers, ac, shc)
		f.agg = append(f.agg, rec.wrap(ac, s.Users+k, sideAgg, false))
		f.shard = append(f.shard, rec.wrap(shc, s.Users+k, sideShard, false))
	}
	return f, nil
}

// outcome is what one training produced, as seen from outside the program.
type outcome struct {
	wall      time.Duration
	info      core.TrainInfo
	w0        mat.Vector
	models    []mat.Vector  // personalized hyperplane per user, device side where there is one
	deviceW0  []mat.Vector  // the global model each device ended with (wire, shard)
	bytes     int64         // both directions, all device and aggregator links
	aggBytes  int64         // aggregator links only
	drops     int           // devices the server dropped
	cpu       time.Duration // user+system CPU the process spent during the training
	alloc     uint64        // heap bytes allocated during the training
	mallocs   uint64
	accuracy  float64
	rounds    int // cut rounds, lockstep iterations or arrival-order folds
	solves    int
	attempted int // 1 training + its local solves + its devices
	failed    int
}

// train runs one training of the workload and accounts it. f must be a fresh
// fleet from connect (nil for in-process trainers); tweak, when non-nil, may
// set the knobs a probe varies (Workers, Obs) on the otherwise pinned config.
func (s spec) train(in *inputs, f *fleet, seed int64, tweak func(*core.Config)) (*outcome, error) {
	cfg := s.coreConfig(seed)
	if tweak != nil {
		tweak(&cfg)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpuBefore := processCPU()
	start := time.Now()
	if f != nil && f.rec != nil {
		f.rec.epoch = start
	}

	out := &outcome{}
	var err error
	switch s.Trainer {
	case trainCentral:
		var m *core.Model
		if m, out.info, err = core.TrainCentralized(in.users, cfg); err == nil {
			out.w0, out.models = m.W0, m.W
		}
	case trainDist:
		dist := s.distConfig()
		dist.Workers = cfg.Workers
		var m *core.Model
		if m, out.info, err = core.TrainDistributed(in.users, cfg, dist); err == nil {
			out.w0, out.models = m.W0, m.W
		}
	case trainWire:
		err = s.trainWire(in, f, cfg, seed, out)
	case trainShard:
		err = s.trainShard(in, f, cfg, seed, out)
	default:
		err = fmt.Errorf("unknown trainer %q", s.Trainer)
	}
	out.wall = time.Since(start)
	out.cpu = processCPU() - cpuBefore
	runtime.ReadMemStats(&after)
	out.alloc = after.TotalAlloc - before.TotalAlloc
	out.mallocs = after.Mallocs - before.Mallocs
	if err != nil {
		return nil, err
	}

	if f != nil {
		for _, c := range f.raw {
			st := c.Stats()
			out.bytes += st.BytesSent + st.BytesReceived
		}
		for _, c := range f.rawAgg {
			st := c.Stats()
			out.aggBytes += st.BytesSent + st.BytesReceived
		}
		out.bytes += out.aggBytes
	}
	out.rounds = out.info.ADMMIterations
	if s.Trainer == trainCentral {
		out.rounds = out.info.CutRounds
	}
	out.solves = out.rounds
	if s.Trainer != trainCentral && !s.Async {
		out.solves *= s.Users
	}
	out.accuracy = accuracy(out.models, in)
	out.attempted = 1 + out.solves + len(out.deviceW0)
	out.failed = out.drops
	for _, w := range out.deviceW0 {
		if w == nil {
			out.failed++
		}
	}
	return out, nil
}

// runDevices starts one RunClient goroutine per device link. The returned
// wait blocks until every device has returned and reports the first error.
func (s spec) runDevices(in *inputs, f *fleet, seed int64, out *outcome) (wait func() error) {
	n := len(f.device)
	out.models = make([]mat.Vector, n)
	out.deviceW0 = make([]mat.Vector, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := protocol.RunClient(f.device[i], in.users[i],
				protocol.ClientOptions{Seed: seed*1_000_003 + int64(i), Async: s.Async})
			if err != nil {
				errs[i] = fmt.Errorf("device %d: %w", i, err)
				return
			}
			out.models[i], out.deviceW0[i] = res.W, res.W0
		}(i)
	}
	return func() error {
		wg.Wait()
		return errors.Join(errs...)
	}
}

func (s spec) trainWire(in *inputs, f *fleet, cfg core.Config, seed int64, out *outcome) error {
	wait := s.runDevices(in, f, seed, out)
	res, err := protocol.RunServer(f.server, protocol.ServerConfig{
		Core: cfg, Dist: s.distConfig(), Async: s.Async})
	if err != nil {
		f.close() // unblock devices parked in Recv
		return errors.Join(err, wait())
	}
	if err := wait(); err != nil {
		return err
	}
	out.info, out.w0 = res.Info, res.Model.W0
	for _, d := range res.Dropped {
		if d {
			out.drops++
		}
	}
	return nil
}

func (s spec) trainShard(in *inputs, f *fleet, cfg core.Config, seed int64, out *outcome) error {
	wait := s.runDevices(in, f, seed, out)
	per := s.Users / s.Shards
	results := make([]*protocol.ServerResult, s.Shards)
	errs := make([]error, s.Shards)
	var wg sync.WaitGroup
	for k := 0; k < s.Shards; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k], errs[k] = protocol.RunShard(f.shard[k], f.server[k*per:(k+1)*per],
				protocol.ShardConfig{Shard: k, Core: core.Config{Seed: seed}})
		}(k)
	}
	agg, err := protocol.RunAggregator(f.agg, protocol.AggConfig{Core: cfg, Dist: s.distConfig()})
	if err != nil {
		f.close()
	}
	wg.Wait()
	if err = errors.Join(err, errors.Join(errs...)); err != nil {
		f.close()
		return errors.Join(err, wait())
	}
	if err := wait(); err != nil {
		return err
	}
	out.info, out.w0 = agg.Info, agg.W0
	for _, r := range results {
		if !sameBits(r.Model.W0, agg.W0) {
			return errors.New("shard finished with a global model that differs from the aggregator's")
		}
		for _, d := range r.Dropped {
			if d {
				out.drops++
			}
		}
	}
	return nil
}

// processCPU is the user+system CPU time this process has consumed. Unlike
// wall time it does not grow while the hypervisor runs someone else on our
// CPUs, which on a shared host is most of the run-to-run noise.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// accuracy scores each user's personalized hyperplane on the user's full
// ground truth (labeled and unlabeled rows alike).
func accuracy(models []mat.Vector, in *inputs) float64 {
	correct, total := 0, 0
	for t, w := range models {
		if w == nil {
			total += len(in.truths[t])
			continue
		}
		for i, y := range in.truths[t] {
			if (w.Dot(in.users[t].X.Row(i)) >= 0) == (y > 0) {
				correct++
			}
			total++
		}
	}
	return float64(correct) / float64(total)
}

func sameBits(a, b mat.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func finite(v mat.Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(v) > 0
}
