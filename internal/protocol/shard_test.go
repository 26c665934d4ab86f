package protocol

import (
	"errors"
	"sync"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/transport"
)

// floatsIdentical is bit-exact slice equality, the currency of the sharded
// plane's bit-identity contract.
func floatsIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// shardedOut collects every side of a sharded run: the aggregator,
// the shards (by shard id), and the devices (by global user index).
type shardedOut struct {
	agg        *AggResult
	aggErr     error
	shards     []*ServerResult
	shardErrs  []error
	clients    []*ClientResult
	clientErrs []error
}

// runSharded wires a full sharded plane over in-process pipes: one
// aggregator, one shard goroutine per partition entry, and one client per
// user. partition maps shard id -> global user indices, in slot order.
// wrapDevice optionally wraps the shard-side device connections. deliver,
// when non-nil, receives each client-side connection instead of the helper
// spawning RunClient (the caller then owns those clients and their results).
func runSharded(t *testing.T, users []core.UserData, partition [][]int,
	cfg AggConfig, shardCfg func(s int) ShardConfig,
	wrapDevice func(u int, c transport.Conn) transport.Conn,
	deliver func(u int, cc transport.Conn)) *shardedOut {
	t.Helper()
	return runShardedLinks(t, users, partition, cfg, shardCfg, wrapDevice, deliver, nil)
}

// runShardedLinks is runSharded with an extra hook on the shard↔aggregator
// links: wrapAgg, when non-nil, may wrap either end of shard s's link (the
// chaos and fault-injection surface of the shard tier).
func runShardedLinks(t *testing.T, users []core.UserData, partition [][]int,
	cfg AggConfig, shardCfg func(s int) ShardConfig,
	wrapDevice func(u int, c transport.Conn) transport.Conn,
	deliver func(u int, cc transport.Conn),
	wrapAgg func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn)) *shardedOut {
	t.Helper()
	k := len(partition)
	out := &shardedOut{
		shards: make([]*ServerResult, k), shardErrs: make([]error, k),
		clients: make([]*ClientResult, len(users)), clientErrs: make([]error, len(users)),
	}
	aggConns := make([]transport.Conn, k)
	var deviceConns []transport.Conn
	var clientWg, shardWg sync.WaitGroup
	for s := range partition {
		aggSide, shardSide := newLink()
		if wrapAgg != nil {
			aggSide, shardSide = wrapAgg(s, aggSide, shardSide)
		}
		aggConns[s] = aggSide
		conns := make([]transport.Conn, 0, len(partition[s]))
		for _, u := range partition[s] {
			sc, cc := newLink()
			if wrapDevice != nil {
				sc = wrapDevice(u, sc)
			}
			conns = append(conns, sc)
			deviceConns = append(deviceConns, sc)
			if deliver != nil {
				deliver(u, cc)
				continue
			}
			clientWg.Add(1)
			go func(u int, cc transport.Conn) {
				defer clientWg.Done()
				out.clients[u], out.clientErrs[u] = RunClient(cc, users[u], ClientOptions{Seed: int64(u)})
			}(u, cc)
		}
		sCfg := ShardConfig{Shard: s}
		if shardCfg != nil {
			sCfg = shardCfg(s)
		}
		shardWg.Add(1)
		go func(s int, shardSide transport.Conn, conns []transport.Conn, sCfg ShardConfig) {
			defer shardWg.Done()
			out.shards[s], out.shardErrs[s] = RunShard(shardSide, conns, sCfg)
		}(s, shardSide, conns, sCfg)
	}
	out.agg, out.aggErr = RunAggregator(aggConns, cfg)
	for _, c := range aggConns {
		_ = c.Close()
	}
	shardWg.Wait()
	for _, c := range deviceConns {
		if transport.Armed(c) {
			t.Error("a shard returned with an exchange armed on a device link")
		}
		_ = c.Close()
	}
	clientWg.Wait()
	return out
}

// planeRun is one training run reduced to what the bit-identity contract
// compares, by global user index whichever plane produced it.
type planeRun struct {
	w0        mat.Vector
	serverW   []mat.Vector // the coordinator's (or owning shard's) per-user models
	deviceW   []mat.Vector // the devices' own per-user models
	history   []float64
	rounds    int
	converged bool
}

// coordinatorPlane trains users on a single coordinator reducing over groups
// (nil: the plain server).
func coordinatorPlane(t *testing.T, users []core.UserData, groups [][]int) planeRun {
	t.Helper()
	cfg := sweepConfig()
	cfg.ReduceGroups = groups
	res, err, clients, clientErrs := runPipesFT(t, users, cfg, nil, nil)
	if err != nil {
		t.Fatalf("single coordinator over groups %v: %v", groups, err)
	}
	run := planeRun{w0: res.Model.W0, serverW: res.Model.W, history: res.Info.ObjectiveHistory,
		rounds: res.Info.CCCPIterations, converged: res.Info.CCCPConverged}
	for u, e := range clientErrs {
		if e != nil {
			t.Fatalf("groups %v: client %d: %v", groups, u, e)
		}
		if res.Dropped[u] {
			t.Fatalf("groups %v: fault-free run dropped user %d", groups, u)
		}
		run.deviceW = append(run.deviceW, clients[u].W)
	}
	return run
}

// shardedPlane trains users on an aggregator plus one shard per partition
// entry, the shards' device links wrapped by wrapDevice when non-nil, and
// checks the plane's internal agreement: every shard ends on the
// aggregator's model and round count, and nobody is dropped.
func shardedPlane(t *testing.T, users []core.UserData, partition [][]int,
	wrapDevice func(u int, c transport.Conn) transport.Conn) planeRun {
	t.Helper()
	sc := sweepConfig()
	out := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, wrapDevice, nil)
	if out.aggErr != nil {
		t.Fatalf("partition %v: aggregator: %v", partition, out.aggErr)
	}
	if out.agg.Users != len(users) {
		t.Errorf("partition %v: aggregator counted %d users, want %d", partition, out.agg.Users, len(users))
	}
	run := planeRun{w0: out.agg.W0, serverW: make([]mat.Vector, len(users)), deviceW: make([]mat.Vector, len(users)),
		history: out.agg.Info.ObjectiveHistory,
		rounds:  out.agg.Info.CCCPIterations, converged: out.agg.Info.CCCPConverged}
	for s, res := range out.shards {
		if e := out.shardErrs[s]; e != nil {
			t.Fatalf("partition %v: shard %d: %v", partition, s, e)
		}
		if !vecIdentical(res.Model.W0, out.agg.W0) {
			t.Errorf("partition %v: shard %d final w0 differs from the aggregator's", partition, s)
		}
		if res.Info.CCCPIterations != out.agg.Info.CCCPIterations {
			t.Errorf("partition %v: shard %d counted %d rounds, aggregator %d",
				partition, s, res.Info.CCCPIterations, out.agg.Info.CCCPIterations)
		}
		if !floatsIdentical(res.Info.ObjectiveHistory, out.agg.Info.ObjectiveHistory) {
			t.Errorf("partition %v: shard %d objective history differs from the aggregator's", partition, s)
		}
		for j, u := range partition[s] {
			if res.Dropped[j] {
				t.Fatalf("partition %v: fault-free sharded run dropped user %d", partition, u)
			}
			run.serverW[u] = res.Model.W[j]
		}
	}
	for u, e := range out.clientErrs {
		if e != nil {
			t.Fatalf("partition %v: client %d: %v", partition, u, e)
		}
		run.deviceW[u] = out.clients[u].W
	}
	return run
}

// TestPlaneDifferential is the pinned bit-identity contract of the wire
// plane (docs/SHARDING.md): the same seeded users through every shape the
// one round engine runs in. The plain server, one reduce group and a
// one-shard plane are the same computation; K reduce groups are the
// reference for K shards; and K shards over bare pipes, whose links
// exchange natively, are the reference for K shards whose device links are
// wrapped in transport.Observe, which puts every link on its actor. Each
// pair must agree bitwise on w0, on every server-side and device-side
// per-user model, on the whole objective history, and on the CCCP outcome.
func TestPlaneDifferential(t *testing.T) {
	users, _ := makeUsers(31, 9)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	partition := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8}}

	plain := coordinatorPlane(t, users, nil)
	kGroups := coordinatorPlane(t, users, partition)
	kShards := shardedPlane(t, users, partition, nil)
	reg := obs.NewRegistry()
	observed := func(u int, c transport.Conn) transport.Conn { return transport.Observe(c, reg, u) }
	for _, c := range []struct {
		name     string
		ref, got planeRun
	}{
		{"plain vs one group", plain, coordinatorPlane(t, users, [][]int{all})},
		{"plain vs one shard", plain, shardedPlane(t, users, [][]int{all}, nil)},
		{"K groups vs K shards", kGroups, kShards},
		{"K shards native vs actor links", kShards, shardedPlane(t, users, partition, observed)},
	} {
		if !vecIdentical(c.got.w0, c.ref.w0) {
			t.Errorf("%s: w0 differs:\n got %v\n ref %v", c.name, c.got.w0, c.ref.w0)
		}
		for u := range users {
			if !vecIdentical(c.got.serverW[u], c.ref.serverW[u]) {
				t.Errorf("%s: user %d server-side model differs", c.name, u)
			}
			if !vecIdentical(c.got.deviceW[u], c.ref.deviceW[u]) {
				t.Errorf("%s: user %d device-side model differs", c.name, u)
			}
		}
		if !floatsIdentical(c.got.history, c.ref.history) {
			t.Errorf("%s: objective history differs: got %v, ref %v", c.name, c.got.history, c.ref.history)
		}
		if c.got.rounds != c.ref.rounds || c.got.converged != c.ref.converged {
			t.Errorf("%s: CCCP outcome differs: got (%d, %v), ref (%d, %v)",
				c.name, c.got.rounds, c.got.converged, c.ref.rounds, c.ref.converged)
		}
	}
	if vecIdentical(plain.w0, kGroups.w0) {
		t.Error("K groups reproduced the plain fold bit for bit; the partition does not exercise the grouped shape")
	}
}

// loopClients starts one RunClientLoop per user fed by a dial channel, so a
// device survives a coordinator hand-off by redialing the next process.
func loopClients(users []core.UserData) (dials []chan transport.Conn,
	wait func() ([]*ClientResult, []error)) {
	n := len(users)
	dials = make([]chan transport.Conn, n)
	results := make([]*ClientResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		dials[i] = make(chan transport.Conn, 2)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dial := func() (transport.Conn, error) {
				c, ok := <-dials[i]
				if !ok {
					return nil, errors.New("out of connections")
				}
				return c, nil
			}
			results[i], errs[i] = RunClientLoop(dial, users[i],
				ClientOptions{Seed: int64(i), MaxRedials: 2,
					RedialDelay: time.Millisecond, Sleep: ftNoSleep})
		}(i)
	}
	wait = func() ([]*ClientResult, []error) {
		wg.Wait()
		return results, errs
	}
	return dials, wait
}

// TestShardedCheckpointHandoffBitIdentical: run one round on a two-shard
// plane, crash every shard at the final broadcast, restore fresh shard
// processes from the per-shard checkpoints with the same (still-running)
// devices, and finish. The final model must be bit-identical to an
// uninterrupted single-coordinator run over the same partition.
func TestShardedCheckpointHandoffBitIdentical(t *testing.T) {
	users, _ := makeUsers(33, 7)
	partition := [][]int{{0, 1, 2, 3}, {4, 5, 6}}

	refCfg := sweepConfig()
	refCfg.ReduceGroups = partition
	ref, err, _, _ := runPipesFT(t, users, refCfg, nil, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	dir := t.TempDir()
	paths := []string{dir + "/shard0.ckpt", dir + "/shard1.ckpt"}
	dials, wait := loopClients(users)
	deliver := func(u int, cc transport.Conn) { dials[u] <- cc }

	// Phase 1: one CCCP round, checkpoint, crash at the done broadcast.
	sc := sweepConfig()
	sc.Core.MaxCCCPIter = 1
	phase1 := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist},
		func(s int) ShardConfig {
			return ShardConfig{Shard: s, FT: FTConfig{CheckpointPath: paths[s]}}
		},
		func(u int, c transport.Conn) transport.Conn { return &doneBlocker{Conn: c} },
		deliver)
	if phase1.aggErr != nil {
		t.Fatalf("phase 1 aggregator: %v", phase1.aggErr)
	}
	for s, e := range phase1.shardErrs {
		if e != nil {
			t.Fatalf("phase 1 shard %d: %v", s, e)
		}
	}

	cks := make([]*Checkpoint, 2)
	for s, p := range paths {
		if cks[s], err = LoadCheckpoint(p); err != nil {
			t.Fatalf("load shard %d checkpoint: %v", s, err)
		}
		if cks[s].Epoch != 1 {
			t.Fatalf("shard %d checkpoint epoch = %d, want 1", s, cks[s].Epoch)
		}
	}

	// Phase 2: fresh shard processes restore the checkpoints; the devices
	// redial and re-attach by session token.
	regs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	sc2 := sweepConfig()
	phase2 := runSharded(t, users, partition, AggConfig{Core: sc2.Core, Dist: sc2.Dist},
		func(s int) ShardConfig {
			return ShardConfig{Shard: s, Core: core.Config{Obs: regs[s]},
				FT: FTConfig{CheckpointPath: paths[s], Restore: cks[s]}}
		}, nil, deliver)
	for _, d := range dials {
		close(d)
	}
	clients, clientErrs := wait()
	if phase2.aggErr != nil {
		t.Fatalf("phase 2 aggregator: %v", phase2.aggErr)
	}
	for s, e := range phase2.shardErrs {
		if e != nil {
			t.Fatalf("phase 2 shard %d: %v", s, e)
		}
	}
	for u, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", u, e)
		}
		if clients[u].Session == 0 {
			t.Errorf("client %d never held a session token", u)
		}
	}

	if !vecIdentical(phase2.agg.W0, ref.Model.W0) {
		t.Error("global model differs from the uninterrupted single-coordinator run")
	}
	if !floatsIdentical(phase2.agg.Info.ObjectiveHistory, ref.Info.ObjectiveHistory) {
		t.Errorf("objective history differs: handoff %v, ref %v",
			phase2.agg.Info.ObjectiveHistory, ref.Info.ObjectiveHistory)
	}
	for s, res := range phase2.shards {
		if got := regs[s].CounterValue(obs.MetricShardMigrations); got != int64(len(partition[s])) {
			t.Errorf("shard %d restored %d users, %s = %d", s, len(partition[s]),
				obs.MetricShardMigrations, got)
		}
		for j, u := range partition[s] {
			if res.Dropped[j] {
				t.Fatalf("user %d dropped across the hand-off", u)
			}
			if !vecIdentical(res.Model.W[j], ref.Model.W[u]) {
				t.Errorf("user %d model differs from the uninterrupted run", u)
			}
			if !vecIdentical(clients[u].W, ref.Model.W[u]) {
				t.Errorf("user %d device-side model differs from the uninterrupted run", u)
			}
		}
	}
	for s, p := range paths {
		final, err := LoadCheckpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		if final.Epoch != 2 {
			t.Errorf("shard %d final checkpoint epoch = %d, want 2", s, final.Epoch)
		}
	}
}

// TestShardedDeviceFailureAbortsGlobally: losing a device below one shard's
// MinActive floor must take down that shard, the aggregator, and the sibling
// shard's devices — the plane has no partial-progress mode.
func TestShardedDeviceFailureAbortsGlobally(t *testing.T) {
	users, _ := makeUsers(35, 5)
	partition := [][]int{{0, 1, 2}, {3, 4}}

	sc := sweepConfig()
	out := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist},
		func(s int) ShardConfig {
			return ShardConfig{Shard: s, MinActive: len(partition[s])}
		},
		func(u int, c transport.Conn) transport.Conn {
			if u == 0 {
				return transport.FailAfter(c, 4)
			}
			return c
		}, nil)

	if out.aggErr == nil {
		t.Error("aggregator survived a shard abort")
	}
	if out.shardErrs[0] == nil || !errors.Is(out.shardErrs[0], ErrTooFewActive) {
		t.Errorf("shard 0 error = %v, want ErrTooFewActive", out.shardErrs[0])
	}
	if out.shardErrs[1] == nil {
		t.Error("sibling shard survived the global abort")
	}
	for u, e := range out.clientErrs {
		if e == nil {
			t.Errorf("client %d finished despite the global abort", u)
		}
	}
}
