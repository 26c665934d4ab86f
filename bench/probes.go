package main

import (
	"fmt"
	"runtime"
	"time"

	"plos/internal/admm"
	"plos/internal/compress"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/optimize"
	"plos/internal/qp"
	"plos/internal/rng"
	"plos/internal/shard"
	"plos/internal/transport"
)

// Probe shapes are the shapes the workloads hand each layer: HAR vectors
// (dim 562), the central-cut working set (300 constraints, 30 groups), the
// wire fleet (32 devices of 12 rows), a dist-inproc device (100 rows), and
// the shard plane (1000 devices × dim 32 per shard, 2 shards). They are fixed
// here, not read off the running workload, so a layer's number means the same
// thing whichever workload's traced run printed it.
const (
	probeDim         = 562
	probeConstraints = 300
	probeGroups      = 30
	probeFleet       = 32
	probeShardUsers  = 1000
	probeShardDim    = 32
)

// loopStats is what one timed probe loop measured, per operation.
type loopStats struct {
	ns, allocs float64
}

// timeLoop calls fn in doubling batches until budget has elapsed and
// returns per-call means. One untimed call first faults in code and buffers.
func timeLoop(budget time.Duration, fn func()) loopStats {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return loopStats{
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
	}
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// runProbes times every layer's public functions on inputs drawn from seed.
// budget is the time each loop runs for.
func runProbes(seed int64, budget time.Duration, m map[string]float64) error {
	g := rng.New(seed).Split("probes")

	// mat
	a, b := g.NormVector(probeDim), g.NormVector(probeDim)
	m["mat.dot_ns"] = timeLoop(budget, func() { sink += a.Dot(b) }).ns

	rows := make([]mat.Vector, probeConstraints)
	for i := range rows {
		rows[i] = g.NormVector(probeDim)
	}
	cell := func(i, j int) float64 { return rows[i].Dot(rows[j]) }
	var cache qp.GramCache
	gram := cache.Grow(probeConstraints, 1, cell).Clone()
	x, y := g.NormVector(probeConstraints), mat.NewVector(probeConstraints)
	m["mat.mulvec_us"] = timeLoop(budget, func() { gram.MulVecTo(y, x) }).ns / 1e3

	// The join-time system of LocalInit: a ridge-regularized dim×dim Gram
	// of a device's 12 rows.
	device := probeDevice(g.Split("device"), 2*6, 3)
	spd := device.X.T().Mul(device.X)
	for i := 0; i < probeDim; i++ {
		spd.Set(i, i, spd.At(i, i)+1)
	}
	var cholErr error
	m["mat.cholesky_ms"] = timeLoop(budget, func() { _, cholErr = mat.Cholesky(spd) }).ns / 1e6
	if cholErr != nil {
		return fmt.Errorf("probe mat.cholesky: %w", cholErr)
	}

	// qp: the budget-grouped restricted dual at central-cut shape.
	groups := qp.GroupSpec{Groups: make([][]int, probeGroups), Budgets: make([]float64, probeGroups)}
	for i := 0; i < probeConstraints; i++ {
		groups.Groups[i%probeGroups] = append(groups.Groups[i%probeGroups], i)
	}
	for k := range groups.Budgets {
		groups.Budgets[k] = float64(probeGroups) / (2 * 100)
	}
	c := g.NormVector(probeConstraints)
	for i := range c {
		c[i] = 1 + 0.1*c[i]
	}
	problem := &qp.Problem{G: gram, C: c, Groups: groups}
	var scratch qp.Scratch
	var qinfo qp.Info
	st := timeLoop(budget, func() {
		_, qinfo, _ = qp.Solve(problem, qp.Options{MaxIter: 200, LipschitzBound: cache.Bound(), Scratch: &scratch})
	})
	m["qp.solve_us"], m["qp.solve_allocs"] = st.ns/1e3, st.allocs
	m["qp.iters_per_solve"] = float64(qinfo.Iterations)

	proj, src := mat.NewVector(probeFleet), g.NormVector(probeFleet)
	m["qp.project_simplex_ns"] = timeLoop(budget, func() { copy(proj, src); qp.ProjectSimplex(proj, 1) }).ns
	m["qp.project_budget_ns"] = timeLoop(budget, func() { copy(proj, src); qp.ProjectBudget(proj, 1) }).ns
	// One cutting-plane round appends one row: the mean cost of a row while
	// a cache grows from empty to the central-cut working-set size.
	m["qp.gram_grow_us"] = timeLoop(budget, func() {
		var gc qp.GramCache
		for n := 1; n <= probeConstraints; n++ {
			gc.Grow(n, 1, cell)
		}
	}).ns / 1e3 / probeConstraints

	// optimize: one user's most-violated constraint, 100 rows × 562.
	big := probeDevice(g.Split("user"), 100, 25)
	eff, weight := make([]float64, 100), make([]float64, 100)
	for i := range eff {
		eff[i], weight[i] = float64(1-2*(i%2)), 0.01
	}
	w := g.NormVector(probeDim)
	w.Scale(0.01)
	var mvErr error
	m["optimize.most_violated_us"] = timeLoop(budget, func() {
		_, mvErr = optimize.MostViolated(big.X, eff, weight, w)
	}).ns / 1e3
	if mvErr != nil {
		return fmt.Errorf("probe optimize.most_violated: %w", mvErr)
	}

	// core: LocalInit at join, then a dist-inproc device's steady-state solve.
	m["core.local_init_ms"] = timeLoop(budget, func() {
		v, _ := core.LocalInit(device, core.Config{Seed: seed})
		sink += v[0]
	}).ns / 1e6
	if err := probeWorker(big, seed, budget, m); err != nil {
		return err
	}

	// admm: one lockstep step and one arrival-order fold at fleet width.
	xs := make([]mat.Vector, probeFleet)
	for i := range xs {
		xs[i] = g.NormVector(probeDim)
	}
	cons, err := admm.NewConsensus(probeDim, probeFleet, 1, admm.SquaredNormZ)
	if err != nil {
		return err
	}
	m["admm.step_us"] = timeLoop(budget, func() { _, err = cons.Step(xs) }).ns / 1e3
	if err != nil {
		return fmt.Errorf("probe admm.step: %w", err)
	}
	fold, err := admm.NewAsyncFold(xs[0], probeFleet, 1, admm.DJAMWeight(3))
	if err != nil {
		return err
	}
	for t, xv := range xs {
		fold.Seed(t, xv)
	}
	arrival := 0
	m["admm.async_fold_us"] = timeLoop(budget, func() {
		fold.Fold([]admm.FoldEntry{{User: arrival % probeFleet, X: xs[arrival%probeFleet], Stale: 1}})
		arrival++
	}).ns / 1e3

	if err := probeTransport(g, budget, m); err != nil {
		return err
	}

	// compress: the update path of wire-q8topk.
	ccfg, err := compress.Parse("q8,topk:0.75")
	if err != nil {
		return err
	}
	enc, dec := compress.NewEncoder(ccfg), compress.NewDecoder()
	var vec *compress.Vec
	turn := 0
	st = timeLoop(budget, func() { vec = enc.Encode(compress.SlotW0, xs[turn%probeFleet]); turn++ })
	m["compress.encode_us"], m["compress.encode_allocs"] = st.ns/1e3, st.allocs
	m["compress.ratio"] = float64(compress.DenseWireBytes(probeDim)) / float64(vec.EncodedSize())
	m["compress.decode_us"] = timeLoop(budget, func() { _, err = dec.Decode(compress.SlotW0, vec) }).ns / 1e3
	if err != nil {
		return fmt.Errorf("probe compress.decode: %w", err)
	}

	// shard: one shard's partial sum and the aggregator's K=2 fold.
	sx, su := make([]mat.Vector, probeShardUsers), make([]mat.Vector, probeShardUsers)
	for i := range sx {
		sx[i], su[i] = g.NormVector(probeShardDim), g.NormVector(probeShardDim)
	}
	m["shard.sumxu_us"] = timeLoop(budget, func() { sink += shard.SumXU(sx, su, probeShardDim)[0] }).ns / 1e3
	partials := []mat.Vector{sx[0], sx[1]}
	m["shard.fold_us"] = timeLoop(budget, func() { sink += shard.Fold(partials)[0] }).ns / 1e3
	return nil
}

// probeDevice draws a device dataset of n bias-augmented rows with the first
// labeled rows carrying alternating labels.
func probeDevice(g *rng.RNG, n, labeled int) core.UserData {
	x := mat.NewMatrix(n, probeDim)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		copy(row, g.NormVector(probeDim))
		cls := float64(1 - 2*(i%2))
		for j := 0; j < 40; j++ {
			row[j] += 0.22 * cls
		}
		row[probeDim-1] = 1
	}
	y := make([]float64, labeled)
	for i := range y {
		y[i] = float64(1 - 2*(i%2))
	}
	return core.UserData{X: x, Y: y}
}

// probeWorker times Worker.Solve the way a lockstep round calls it: signs
// frozen once, then repeated solves against a fixed consensus. Each solve is
// its own sample, so the tail is a property of the solver, not of a mean.
func probeWorker(data core.UserData, seed int64, budget time.Duration, m map[string]float64) error {
	spec, _ := specByName("dist-inproc")
	wk, err := core.NewWorker(data, spec.Users, spec.coreConfig(seed))
	if err != nil {
		return err
	}
	w0, _ := core.LocalInit(data, core.Config{Seed: seed})
	u := mat.NewVector(len(w0))
	wk.RefreshSigns(w0)
	solve := func() (time.Duration, error) {
		start := time.Now()
		_, _, _, err := wk.Solve(w0, u, 1)
		return time.Since(start), err
	}
	first, err := solve()
	if err != nil {
		return fmt.Errorf("probe core.worker_solve: %w", err)
	}
	m["core.worker_first_solve_us"] = float64(first.Nanoseconds()) / 1e3

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var samples []float64
	for start := time.Now(); time.Since(start) < budget || len(samples) < 3; {
		d, err := solve()
		if err != nil {
			return fmt.Errorf("probe core.worker_solve: %w", err)
		}
		samples = append(samples, float64(d.Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(samples))
	m["core.worker_solve_us_p50"] = percentile(samples, 50)
	m["core.worker_solve_us_p90"] = percentile(samples, 90)
	m["core.worker_solve_allocs"] = float64(after.Mallocs-before.Mallocs) / n
	m["core.worker_solve_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / n
	return nil
}

// probeTransport measures the codec on an update frame and the round trip of
// that frame over a pipe, loopback TCP, and TCP under the wrapper stack
// plos.Serve builds (Observe, then Retry; compression off adds no wrapper).
func probeTransport(g *rng.RNG, budget time.Duration, m map[string]float64) error {
	update := transport.Message{Type: transport.MsgUpdate, Round: 3,
		W: g.NormVector(probeDim), V: g.NormVector(probeDim), Xi: 0.5}
	var frame []byte
	st := timeLoop(budget, func() { frame = transport.EncodeMessage(update) })
	m["transport.encode_ns"], m["transport.encode_allocs"] = st.ns, st.allocs
	var err error
	st = timeLoop(budget, func() { _, err = transport.DecodeMessage(frame) })
	if err != nil {
		return fmt.Errorf("probe transport.decode: %w", err)
	}
	m["transport.decode_ns"], m["transport.decode_allocs"] = st.ns, st.allocs
	m["transport.frame_bytes_update"] = float64(len(frame))
	m["transport.frame_bytes_control"] = float64(len(transport.EncodeMessage(
		transport.Message{Type: transport.MsgShardNext, Round: 3})))

	near, far := transport.Pipe()
	if m["transport.pipe_rtt_us"], err = roundTrip(near, far, update, budget); err != nil {
		return err
	}

	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	far, near, err = tcpPair(l)
	if err != nil {
		return err
	}
	if m["transport.tcp_rtt_us"], err = roundTrip(near, far, update, budget); err != nil {
		return err
	}
	far, near, err = tcpPair(l)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	stack := func(c transport.Conn, user int) transport.Conn {
		return transport.Retry(transport.Observe(c, reg, user), transport.RetryPolicy{MaxAttempts: 3, Seed: 1}, reg)
	}
	m["transport.stack_rtt_us"], err = roundTrip(stack(near, -1), stack(far, 0), update, budget)
	return err
}

// roundTrip echoes msg off far and times send+receive on near, in µs. Both
// ends are closed before it returns, which also ends the echo goroutine.
func roundTrip(near, far transport.Conn, msg transport.Message, budget time.Duration) (float64, error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := far.Recv()
			if err != nil {
				return
			}
			if far.Send(m) != nil {
				return
			}
		}
	}()
	var err error
	st := timeLoop(budget, func() {
		if err == nil {
			if err = near.Send(msg); err == nil {
				_, err = near.Recv()
			}
		}
	})
	_ = near.Close()
	_ = far.Close()
	<-done
	if err != nil {
		return 0, fmt.Errorf("probe round trip: %w", err)
	}
	return st.ns / 1e3, nil
}
