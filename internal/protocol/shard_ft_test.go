package protocol

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/transport"
)

// tailHas reports whether the flight recorder's tail holds at least one
// record of the given kind.
func tailHas(fr *obs.FlightRecorder, rec string) bool {
	for _, line := range fr.Tail() {
		if strings.Contains(line, `"rec":"`+rec+`"`) {
			return true
		}
	}
	return false
}

// TestShardFTFaultFreeBitIdentical pins the acceptance criterion of the
// self-healing plane: with every shard-tier FT mechanism armed (reduce
// deadline, permissive quorum, stale carry, rejoin channel) a fault-free run
// must be bit-identical to the strict plane — the FT code path may not touch
// a single float.
func TestShardFTFaultFreeBitIdentical(t *testing.T) {
	users, _ := makeUsers(36, 7)
	partition := [][]int{{0, 1, 2, 3}, {4, 5, 6}}

	sc := sweepConfig()
	strict := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, nil, nil)
	if strict.aggErr != nil {
		t.Fatalf("strict aggregator: %v", strict.aggErr)
	}

	reg := obs.NewRegistry()
	sc2 := sweepConfig()
	sc2.Core.Obs = reg
	ft := runSharded(t, users, partition, AggConfig{Core: sc2.Core, Dist: sc2.Dist,
		FT: AggFTConfig{ReduceTimeout: time.Minute, ShardQuorum: 1, MaxStale: 3,
			Rejoin: make(chan Rejoin, 1)}}, nil, nil, nil)
	if ft.aggErr != nil {
		t.Fatalf("FT aggregator: %v", ft.aggErr)
	}

	if !vecIdentical(ft.agg.W0, strict.agg.W0) {
		t.Error("fault-free FT run changed the global model")
	}
	if !floatsIdentical(ft.agg.Info.ObjectiveHistory, strict.agg.Info.ObjectiveHistory) {
		t.Errorf("fault-free FT run changed the objective history: ft %v, strict %v",
			ft.agg.Info.ObjectiveHistory, strict.agg.Info.ObjectiveHistory)
	}
	for s := range partition {
		for j, u := range partition[s] {
			if !vecIdentical(ft.shards[s].Model.W[j], strict.shards[s].Model.W[j]) {
				t.Errorf("user %d model differs between FT and strict plane", u)
			}
		}
	}
	for u := range users {
		if !vecIdentical(ft.clients[u].W, strict.clients[u].W) {
			t.Errorf("user %d device-side model differs between FT and strict plane", u)
		}
	}
	if ft.agg.Restarts != 0 {
		t.Errorf("fault-free run counted %d restarts", ft.agg.Restarts)
	}
	for s, c := range ft.agg.ShardCauses {
		if c != nil {
			t.Errorf("fault-free run recorded a cause for shard %d: %v", s, c)
		}
	}
	if got := reg.CounterValue(obs.MetricShardStaleReduces); got != 0 {
		t.Errorf("%s = %d on a fault-free run", obs.MetricShardStaleReduces, got)
	}
	if got := reg.CounterValue(obs.MetricShardRestarts); got != 0 {
		t.Errorf("%s = %d on a fault-free run", obs.MetricShardRestarts, got)
	}
}

// TestShardedAggLinkChaosBitIdentical is the shard-tier chaos soak: seeded
// drops, duplicates, corruption, delays, and flaps on both aggregator links,
// absorbed by the Retry layer on each end. Chaos faults are
// content-preserving and the reduce is lockstep, so even the strict plane
// must finish bit-identical to the clean run — with the per-link retry
// counter showing the absorbed faults.
func TestShardedAggLinkChaosBitIdentical(t *testing.T) {
	users, _ := makeUsers(37, 6)
	partition := [][]int{{0, 1, 2}, {3, 4, 5}}

	sc := sweepConfig()
	clean := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, nil, nil)
	if clean.aggErr != nil {
		t.Fatalf("clean aggregator: %v", clean.aggErr)
	}

	reg := obs.NewRegistry()
	policy := func(seed int64) transport.RetryPolicy {
		return transport.RetryPolicy{MaxAttempts: 10, Seed: seed, Sleep: ftNoSleep,
			Counter: obs.MetricAggLinkRetries}
	}
	wrapAgg := func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
		chaos := transport.Chaos(shardSide, transport.ChaosConfig{
			Seed:        200 + int64(s),
			DropProb:    0.05,
			DupProb:     0.05,
			CorruptProb: 0.03,
			DelayProb:   0.10,
			MaxDelay:    time.Millisecond,
			FlapProb:    0.01,
			Sleep:       ftNoSleep,
		}, reg)
		// The aggregator side needs the dedup layer because shard-side chaos
		// duplicates deliveries toward the aggregator.
		return transport.Retry(aggSide, policy(1000+int64(s)), reg),
			transport.Retry(chaos, policy(int64(s)), reg)
	}
	sc2 := sweepConfig()
	chaotic := runShardedLinks(t, users, partition, AggConfig{Core: sc2.Core, Dist: sc2.Dist},
		nil, nil, nil, wrapAgg)
	if chaotic.aggErr != nil {
		t.Fatalf("chaos aggregator: %v", chaotic.aggErr)
	}
	for s, e := range chaotic.shardErrs {
		if e != nil {
			t.Fatalf("chaos shard %d: %v", s, e)
		}
	}
	for u, e := range chaotic.clientErrs {
		if e != nil {
			t.Fatalf("chaos client %d: %v", u, e)
		}
	}

	if !vecIdentical(chaotic.agg.W0, clean.agg.W0) {
		t.Error("global model differs under aggregator-link chaos")
	}
	if !floatsIdentical(chaotic.agg.Info.ObjectiveHistory, clean.agg.Info.ObjectiveHistory) {
		t.Error("objective history differs under aggregator-link chaos")
	}
	for s := range partition {
		for j, u := range partition[s] {
			if !vecIdentical(chaotic.shards[s].Model.W[j], clean.shards[s].Model.W[j]) {
				t.Errorf("user %d model differs under aggregator-link chaos", u)
			}
		}
	}
	if reg.CounterValue(obs.MetricChaosFaults) == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	}
	if reg.CounterValue(obs.MetricAggLinkRetries) == 0 {
		t.Error("agg_link_retries_total never moved despite injected faults")
	}
}

// TestShardedDegradedQuorumCompletes: a shard whose aggregator link dies
// mid-run is detached, its last partials are carried for the remaining
// reduces, and with ShardQuorum=1 the run completes — naming the dead shard
// in ShardCauses and leaving the stale reduces visible in metrics and the
// flight tail.
func TestShardedDegradedQuorumCompletes(t *testing.T) {
	users, _ := makeUsers(38, 5)
	partition := [][]int{{0, 1, 2}, {3, 4}}

	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(nil, 128)
	reg.SetFlightRecorder(fr)
	sc := sweepConfig()
	sc.Core.MaxCCCPIter = 3
	sc.Dist.MaxADMMIter = 1
	cfg := AggConfig{Core: sc.Core, Dist: sc.Dist,
		FT: AggFTConfig{ShardQuorum: 1, MaxStale: 8}}
	cfg.Core.Obs = reg

	// Shard 1's link survives the handshake and round 0 (7 ops), then dies
	// on its round-1 consensus sum.
	out := runShardedLinks(t, users, partition, cfg, nil, nil, nil,
		func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
			if s == 1 {
				return aggSide, transport.FailAfter(shardSide, 7)
			}
			return aggSide, shardSide
		})

	if out.aggErr != nil {
		t.Fatalf("aggregator did not survive the shard loss: %v", out.aggErr)
	}
	// At least round 1 closed on carried partials; CCCP may converge earlier
	// than MaxCCCPIter once the stale objective stops moving.
	if got := out.agg.Info.CCCPIterations; got < 2 {
		t.Errorf("degraded run finished %d rounds, want at least 2", got)
	}
	if out.shardErrs[0] != nil {
		t.Errorf("healthy shard failed: %v", out.shardErrs[0])
	}
	if out.shardErrs[1] == nil {
		t.Error("dead shard reported no error")
	}
	if out.agg.ShardCauses[1] == nil {
		t.Error("aggregator recorded no cause for the dead shard")
	}
	if out.agg.ShardCauses[0] != nil {
		t.Errorf("aggregator blamed the healthy shard: %v", out.agg.ShardCauses[0])
	}
	if out.agg.Restarts != 0 {
		t.Errorf("no shard rejoined, yet Restarts = %d", out.agg.Restarts)
	}
	for _, u := range partition[0] {
		if out.clientErrs[u] != nil {
			t.Errorf("client %d on the healthy shard failed: %v", u, out.clientErrs[u])
		}
		if !vecIdentical(out.clients[u].W0, out.agg.W0) {
			t.Errorf("client %d did not receive the final global model", u)
		}
	}
	for _, u := range partition[1] {
		if out.clientErrs[u] == nil {
			t.Errorf("client %d outlived its crashed shard", u)
		}
	}
	// Round 1 is carried on both legs for the dead shard.
	if got := reg.CounterValue(obs.MetricShardStaleReduces); got < 2 {
		t.Errorf("%s = %d, want at least 2", obs.MetricShardStaleReduces, got)
	}
	if !tailHas(fr, "shard-down") {
		t.Error("no shard-down flight record")
	}
	if !tailHas(fr, "shard-stale") {
		t.Error("no shard-stale flight record")
	}
}

// TestShardedQuorumAbortNamesShard: under the strict quorum (the zero
// AggFTConfig) a shard-link failure aborts the run — and the error must name
// the failing shard on both the aggregator and the surviving sibling.
func TestShardedQuorumAbortNamesShard(t *testing.T) {
	users, _ := makeUsers(39, 5)
	partition := [][]int{{0, 1, 2}, {3, 4}}

	sc := sweepConfig()
	sc.Core.MaxCCCPIter = 2
	sc.Dist.MaxADMMIter = 1
	out := runShardedLinks(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist},
		nil, nil, nil,
		func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
			if s == 1 {
				return aggSide, transport.FailAfter(shardSide, 7)
			}
			return aggSide, shardSide
		})

	if out.aggErr == nil {
		t.Fatal("strict aggregator survived a shard loss")
	}
	if !errors.Is(out.aggErr, ErrTooFewActive) {
		t.Errorf("aggregator error = %v, want ErrTooFewActive", out.aggErr)
	}
	if !strings.Contains(out.aggErr.Error(), "shard 1") {
		t.Errorf("aggregator error does not name the failing shard: %v", out.aggErr)
	}
	if out.shardErrs[0] == nil {
		t.Fatal("surviving shard finished despite the global abort")
	}
	if !errors.Is(out.shardErrs[0], ErrAborted) || !errors.Is(out.shardErrs[0], ErrTooFewActive) {
		t.Errorf("sibling error = %v, want ErrAborted wrapping ErrTooFewActive", out.shardErrs[0])
	}
	if !strings.Contains(out.shardErrs[0].Error(), "shard 1") {
		t.Errorf("sibling error does not name the failing shard: %v", out.shardErrs[0])
	}
	for u, e := range out.clientErrs {
		if e == nil {
			t.Errorf("client %d finished despite the global abort", u)
		}
	}
}

// slowConn delays its n-th Send long enough for the aggregator's reduce
// deadline to fire — a lagging shard, not a dead one.
type slowConn struct {
	transport.Conn
	n, at int
	delay time.Duration
}

func (c *slowConn) Send(m transport.Message) error {
	c.n++
	if c.n == c.at {
		time.Sleep(c.delay)
	}
	return c.Conn.Send(m)
}

// TestShardedReduceDeadlineDetaches: lagging is indistinguishable from dead.
// A shard that stalls past ReduceTimeout is detached mid-leg, the run
// finishes on stale carries, and the recorded cause says why.
func TestShardedReduceDeadlineDetaches(t *testing.T) {
	users, _ := makeUsers(40, 5)
	partition := [][]int{{0, 1, 2}, {3, 4}}

	reg := obs.NewRegistry()
	sc := sweepConfig()
	sc.Core.MaxCCCPIter = 3
	sc.Dist.MaxADMMIter = 1
	cfg := AggConfig{Core: sc.Core, Dist: sc.Dist,
		FT: AggFTConfig{ReduceTimeout: 100 * time.Millisecond, ShardQuorum: 1, MaxStale: 8}}
	cfg.Core.Obs = reg

	// Send #4 is shard 1's round-1 consensus sum (after hello and the two
	// round-0 legs): stall it for 10x the deadline.
	out := runShardedLinks(t, users, partition, cfg, nil, nil, nil,
		func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
			if s == 1 {
				return aggSide, &slowConn{Conn: shardSide, at: 4, delay: time.Second}
			}
			return aggSide, shardSide
		})

	if out.aggErr != nil {
		t.Fatalf("aggregator did not survive the lagging shard: %v", out.aggErr)
	}
	if got := out.agg.Info.CCCPIterations; got < 2 {
		t.Errorf("run finished %d rounds, want at least 2", got)
	}
	if out.agg.ShardCauses[1] == nil || !strings.Contains(out.agg.ShardCauses[1].Error(), "deadline") {
		t.Errorf("cause for the lagging shard = %v, want a reduce-deadline miss", out.agg.ShardCauses[1])
	}
	if out.shardErrs[1] == nil {
		t.Error("lagging shard kept running after its detach")
	}
	if got := reg.CounterValue(obs.MetricShardStaleReduces); got == 0 {
		t.Error("no stale reduces recorded for the detached shard")
	}
	for _, u := range partition[0] {
		if out.clientErrs[u] != nil {
			t.Errorf("client %d on the healthy shard failed: %v", u, out.clientErrs[u])
		}
	}
}

// crashConn makes a shard's death look like a SIGKILL to its devices: the
// clean abort broadcast a dying shard writes is replaced by a closed
// connection, which is what a real process exit leaves on the wire. The
// first suppressed abort closes crashed.
type crashConn struct {
	transport.Conn
	once    *sync.Once
	crashed chan struct{}
}

func (c *crashConn) Send(m transport.Message) error {
	if m.Type == transport.MsgError {
		c.once.Do(func() { close(c.crashed) })
		_ = c.Conn.Close()
		return errors.New("shard crashed")
	}
	return c.Conn.Send(m)
}

// parkConn parks the healthy shard's aggregator link on its at-th Send (the
// round in flight at the crash) until hold closes — that reduce cannot close,
// so the run cannot end before the restarted shard is back in the rejoin
// queue.
type parkConn struct {
	transport.Conn
	n, at int
	hold  <-chan struct{}
}

func (c *parkConn) Send(m transport.Message) error {
	c.n++
	if c.n == c.at {
		<-c.hold
	}
	return c.Conn.Send(m)
}

// TestShardedKillRestoreRejoins is the headline soak of the self-healing
// plane: kill shard 0's aggregator link mid-training (its devices see a dead
// connection, as after a SIGKILL), let the degraded quorum carry its stale
// partials, restart the shard from its atomic checkpoint with redialing
// devices, replay the restore handshake through the rejoin channel, and
// finish the run with every party agreeing on the final model.
func TestShardedKillRestoreRejoins(t *testing.T) {
	users, _ := makeUsers(41, 6)
	partition := [][]int{{0, 1, 2}, {3, 4, 5}}
	ckPath := t.TempDir() + "/shard0.ckpt"

	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(nil, 256)
	reg.SetFlightRecorder(fr)
	rejoins := make(chan Rejoin, 1)

	sc := sweepConfig()
	sc.Core.MaxCCCPIter = 6
	sc.Dist.MaxADMMIter = 1
	// A tiny tolerance keeps CCCP from declaring convergence while the shard
	// is still down — the rejoin must land at a round boundary with rounds
	// left to run, so the restarted shard's devices re-solve and re-converge.
	sc.Core.CCCPTol = 1e-12
	cfg := AggConfig{Core: sc.Core, Dist: sc.Dist,
		FT: AggFTConfig{ShardQuorum: 1, MaxStale: 100, Rejoin: rejoins}}
	cfg.Core.Obs = reg

	crashed := make(chan struct{})
	hold := make(chan struct{})
	var crashOnce sync.Once
	dials, wait := loopClients(users)

	// Shard 0: the aggregator link dies on its round-1 consensus sum (7 ops
	// survive the handshake and round 0, so checkpoint epoch 1 is on disk and
	// the crash lands mid-training — before convergence can end the run).
	agg0, sh0 := newLink()
	link0 := transport.FailAfter(sh0, 7)
	devs0 := make([]transport.Conn, len(partition[0]))
	for j, u := range partition[0] {
		scn, cc := newLink()
		devs0[j] = &crashConn{Conn: scn, once: &crashOnce, crashed: crashed}
		dials[u] <- cc
	}
	// Shard 1 stays healthy, but its aggregator link parks its round-1
	// consensus sum (Send #4: hello, round-0 sum, round-0 resid, round-1 sum)
	// until the rejoin is queued, so the round the crash lands in cannot
	// close — let alone the run finish — before the restarted shard is back.
	agg1, sh1 := newLink()
	link1 := transport.Conn(&parkConn{Conn: sh1, at: 4, hold: hold})
	devs1 := make([]transport.Conn, len(partition[1]))
	for j, u := range partition[1] {
		scn, cc := newLink()
		devs1[j] = scn
		dials[u] <- cc
	}

	var wg sync.WaitGroup
	var run1Err, run2Err, shard1Err, aggErr error
	var run2, shard1Res *ServerResult
	var aggRes *AggResult
	wg.Add(3)
	go func() {
		defer wg.Done()
		_, run1Err = RunShard(link0, devs0, ShardConfig{Shard: 0, FT: FTConfig{CheckpointPath: ckPath}})
	}()
	go func() {
		defer wg.Done()
		shard1Res, shard1Err = RunShard(link1, devs1, ShardConfig{Shard: 1})
	}()
	go func() {
		defer wg.Done()
		aggRes, aggErr = RunAggregator([]transport.Conn{agg0, agg1}, cfg)
	}()

	// The crash happened: restart shard 0 from its checkpoint with fresh
	// device connections (the devices redial through their loops), then play
	// the serve layer's rejoin accept loop.
	<-crashed
	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("load checkpoint after the crash: %v", err)
	}
	if ck.Epoch != 1 {
		t.Fatalf("checkpoint epoch at the crash = %d, want 1", ck.Epoch)
	}
	devs2 := make([]transport.Conn, len(partition[0]))
	for j, u := range partition[0] {
		scn, cc := newLink()
		devs2[j] = scn
		dials[u] <- cc
	}
	agg2, sh2 := newLink()
	wg.Add(1)
	go func() {
		defer wg.Done()
		run2, run2Err = RunShard(sh2, devs2,
			ShardConfig{Shard: 0, FT: FTConfig{CheckpointPath: ckPath, Restore: ck}})
	}()
	hello, err := agg2.Recv()
	if err != nil {
		t.Fatalf("restore hello from the restarted shard: %v", err)
	}
	rejoins <- Rejoin{Conn: agg2, Hello: hello}
	close(hold)

	wg.Wait()
	for _, d := range dials {
		close(d)
	}
	clients, clientErrs := wait()

	if run1Err == nil {
		t.Fatal("killed shard reported no error")
	}
	if aggErr != nil {
		t.Fatalf("aggregator: %v", aggErr)
	}
	if shard1Err != nil {
		t.Fatalf("healthy shard: %v", shard1Err)
	}
	if run2Err != nil {
		t.Fatalf("restarted shard: %v", run2Err)
	}
	if aggRes.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", aggRes.Restarts)
	}
	if aggRes.ShardCauses[0] == nil {
		t.Error("no cause recorded for the killed shard")
	}
	if aggRes.ShardCauses[1] != nil {
		t.Errorf("healthy shard blamed: %v", aggRes.ShardCauses[1])
	}
	// The crash lands in round 1 and the rejoin at the round-2 boundary, so at
	// least rounds 0-2 must close; the run may still stop before MaxCCCPIter
	// if the rejoined partials end the descent (benign ErrNotDescending).
	if got := aggRes.Info.CCCPIterations; got < 3 || got > 6 {
		t.Errorf("run finished %d rounds, want 3..6", got)
	}
	if got := reg.CounterValue(obs.MetricShardRestarts); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricShardRestarts, got)
	}
	if got := reg.CounterValue(obs.MetricShardStaleReduces); got == 0 {
		t.Error("no stale reduces recorded while the shard was down")
	}
	for _, rec := range []string{"shard-down", "shard-stale", "shard-restore"} {
		if !tailHas(fr, rec) {
			t.Errorf("no %s flight record", rec)
		}
	}

	// The restarted shard caught up bitwise: same final model, same full
	// objective history as the aggregator.
	if !vecIdentical(run2.Model.W0, aggRes.W0) || !vecIdentical(shard1Res.Model.W0, aggRes.W0) {
		t.Error("final w0 differs across the plane after the rejoin")
	}
	if !floatsIdentical(run2.Info.ObjectiveHistory, aggRes.Info.ObjectiveHistory) {
		t.Errorf("restarted shard's objective history diverged:\nshard %v\n  agg %v",
			run2.Info.ObjectiveHistory, aggRes.Info.ObjectiveHistory)
	}
	for u, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", u, e)
		}
	}
	for j, u := range partition[0] {
		if run2.Dropped[j] {
			t.Errorf("user %d dropped across the kill/restore", u)
		}
		if !vecIdentical(clients[u].W, run2.Model.W[j]) {
			t.Errorf("user %d device- and shard-side models disagree after the rejoin", u)
		}
	}
	for j, u := range partition[1] {
		if !vecIdentical(clients[u].W, shard1Res.Model.W[j]) {
			t.Errorf("user %d device- and shard-side models disagree", u)
		}
	}
}

// TestShardedRejoinValidation drives the aggregator's attach validation
// directly: every malformed rejoin attempt is rejected with a reasoned
// MsgError and leaves the shard slots untouched; the valid attempt is
// fast-forwarded to the current round.
func TestShardedRejoinValidation(t *testing.T) {
	reg := obs.NewRegistry()
	// Shard 0 is attached; shard 1 is detached after two stale carries.
	live, _ := newLink()
	a := newAggState(AggConfig{Core: core.Config{Obs: reg}}, []transport.Conn{live, nil},
		3, 7, mat.Vector{1, 2, 3}, []float64{10, 9})
	a.users[1].detached, a.users[1].stale = true, 2
	valid := func() transport.Message {
		return transport.Message{Type: transport.MsgShardHello, Round: 1, Labeled: 1,
			Dim: 3, Users: 2, Samples: 2, W: []float64{1, 2, 3}, V: []float64{10}}
	}

	tryRejoin := func(hello transport.Message) transport.Message {
		t.Helper()
		aggSide, peer := newLink()
		var reply transport.Message
		var rerr error
		done := make(chan struct{})
		go func() { defer close(done); reply, rerr = peer.Recv() }()
		a.attach(Rejoin{Conn: aggSide, Hello: hello})
		<-done
		if rerr != nil {
			t.Fatalf("no reply to the rejoin attempt: %v", rerr)
		}
		return reply
	}

	rejects := []struct {
		name   string
		mutate func(*transport.Message)
		want   string
	}{
		{"wrong type", func(m *transport.Message) { m.Type = transport.MsgHello }, "checkpoint-restore"},
		{"fresh hello", func(m *transport.Message) { m.Labeled = 0 }, "checkpoint-restore"},
		{"unknown id", func(m *transport.Message) { m.Round = 5 }, "unknown shard id"},
		{"still live", func(m *transport.Message) { m.Round = 0 }, "still attached"},
		{"dim mismatch", func(m *transport.Message) { m.Dim = 4 }, "dimension mismatch"},
		{"no users", func(m *transport.Message) { m.Users = 0 }, "no users"},
		{"diverged history", func(m *transport.Message) { m.V = []float64{10, 8} }, "diverged"},
		{"history from the future", func(m *transport.Message) { m.V = []float64{10, 9, 8} }, "diverged"},
	}
	for _, tc := range rejects {
		m := valid()
		tc.mutate(&m)
		reply := tryRejoin(m)
		if reply.Type != transport.MsgError || !strings.Contains(reply.Reason, tc.want) {
			t.Errorf("%s: reply = %v (%q), want MsgError containing %q",
				tc.name, reply.Type, reply.Reason, tc.want)
		}
		if a.users[1].conn != nil {
			t.Fatalf("%s: rejected rejoin flipped the shard live", tc.name)
		}
	}
	if a.restarts != 0 || reg.CounterValue(obs.MetricShardRestarts) != 0 {
		t.Fatal("rejected rejoins counted as restarts")
	}

	reply := tryRejoin(valid())
	if reply.Type != transport.MsgShardHello {
		t.Fatalf("valid rejoin rejected: %v (%q)", reply.Type, reply.Reason)
	}
	if reply.Round != 2 || reply.Users != 7 || len(reply.W) != 3 || !floatsIdentical(reply.V, a.objHistory) {
		t.Errorf("fast-forward reply = round %d, users %d, |w0| %d, hist %v",
			reply.Round, reply.Users, len(reply.W), reply.V)
	}
	s := a.users[1]
	if s.conn == nil || s.detached || s.stale != 0 {
		t.Errorf("shard state after rejoin: attached %v, detached %v, stale %d", s.conn != nil, s.detached, s.stale)
	}
	if a.restarts != 1 || reg.CounterValue(obs.MetricShardRestarts) != 1 {
		t.Error("successful rejoin not counted")
	}
	_ = live.Close()
	_ = s.conn.Close()
}

// TestShardedRestoreHandshakeRejected: the aggregator must refuse a
// deployment whose shards disagree about the restore — mixed fresh and
// restoring shards, diverged restored state, or a malformed restored model —
// and tell every shard why.
func TestShardedRestoreHandshakeRejected(t *testing.T) {
	fresh := func(id int) transport.Message {
		return transport.Message{Type: transport.MsgShardHello, Round: id, Dim: 3,
			Users: 2, Samples: 2, W: []float64{1, 2, 3}, U: []float64{1, 2, 3}, Xi: 2}
	}
	restore := func(id int, w []float64) transport.Message {
		return transport.Message{Type: transport.MsgShardHello, Round: id, Dim: 3,
			Users: 2, Samples: 2, Labeled: 1, W: w, V: []float64{5}}
	}

	runCase := func(h0, h1 transport.Message) (error, []transport.Message) {
		t.Helper()
		a0, s0 := newLink()
		a1, s1 := newLink()
		replies := make([]transport.Message, 2)
		var wg sync.WaitGroup
		for i, c := range []transport.Conn{s0, s1} {
			h := []transport.Message{h0, h1}[i]
			wg.Add(1)
			go func(i int, c transport.Conn, h transport.Message) {
				defer wg.Done()
				_ = c.Send(h)
				replies[i], _ = c.Recv()
			}(i, c, h)
		}
		sc := sweepConfig()
		_, err := RunAggregator([]transport.Conn{a0, a1}, AggConfig{Core: sc.Core, Dist: sc.Dist})
		wg.Wait()
		return err, replies
	}

	err, replies := runCase(fresh(0), restore(1, []float64{1, 2, 3}))
	if err == nil || !strings.Contains(err.Error(), "restoring") {
		t.Errorf("mixed fresh/restore handshake: err = %v", err)
	}
	for i, r := range replies {
		if r.Type != transport.MsgError {
			t.Errorf("mixed handshake: shard %d got %v, want MsgError", i, r.Type)
		}
	}

	err, _ = runCase(restore(0, []float64{1, 2, 3}), restore(1, []float64{1, 2, 4}))
	if err == nil || !strings.Contains(err.Error(), "different global state") {
		t.Errorf("diverged restore handshake: err = %v", err)
	}

	err, _ = runCase(restore(0, []float64{1, 2}), restore(1, []float64{1, 2}))
	if err == nil || !errors.Is(err, ErrDimMismatch) {
		t.Errorf("short restored w0: err = %v, want ErrDimMismatch", err)
	}
}

// mkCkpt builds a minimal in-memory checkpoint for the merge/split tests.
func mkCkpt(epoch, dim int, w0, obj []float64, sessions ...int64) *Checkpoint {
	n := len(sessions)
	return &Checkpoint{Epoch: epoch, Dim: dim, Seed: 7,
		W0:        append(mat.Vector(nil), w0...),
		Objective: append([]float64(nil), obj...),
		Sessions:  append([]int64(nil), sessions...),
		Dropped:   make([]bool, n), Stale: make([]int, n),
		Us: make([]mat.Vector, n), LastW: make([]mat.Vector, n),
		LastV: make([]mat.Vector, n), LastXi: make([]float64, n)}
}

func TestMergeCheckpointsErrors(t *testing.T) {
	base := func() *Checkpoint { return mkCkpt(2, 2, []float64{1, 2}, []float64{9, 8}, 11, 12) }

	if _, err := MergeCheckpoints(); err == nil {
		t.Error("merging nothing succeeded")
	}

	cases := []struct {
		name  string
		other *Checkpoint
		want  string
	}{
		{"epoch mismatch", mkCkpt(3, 2, []float64{1, 2}, []float64{9, 8}, 13), "epoch"},
		{"dim mismatch", mkCkpt(2, 3, []float64{1, 2, 3}, []float64{9, 8}, 13), "epoch"},
		{"w0 divergence", mkCkpt(2, 2, []float64{1, 3}, []float64{9, 8}, 13), "global state"},
		{"objective divergence", mkCkpt(2, 2, []float64{1, 2}, []float64{9, 7}, 13), "global state"},
		{"overlapping sessions", mkCkpt(2, 2, []float64{1, 2}, []float64{9, 8}, 12), "duplicate session"},
	}
	for _, tc := range cases {
		if _, err := MergeCheckpoints(base(), tc.other); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// Sessionless slots (token 0) are exempt from the uniqueness rule.
	zero := mkCkpt(2, 2, []float64{1, 2}, []float64{9, 8}, 0)
	if _, err := MergeCheckpoints(zero, mkCkpt(2, 2, []float64{1, 2}, []float64{9, 8}, 0)); err != nil {
		t.Errorf("zero-token merge failed: %v", err)
	}

	merged, err := MergeCheckpoints(base(), mkCkpt(2, 2, []float64{1, 2}, []float64{9, 8}, 13))
	if err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}
	if merged.Epoch != 2 || len(merged.Sessions) != 3 ||
		merged.Sessions[0] != 11 || merged.Sessions[1] != 12 || merged.Sessions[2] != 13 {
		t.Errorf("merged checkpoint = epoch %d, sessions %v", merged.Epoch, merged.Sessions)
	}
}

func TestSplitCheckpointErrors(t *testing.T) {
	ck := mkCkpt(2, 2, []float64{1, 2}, []float64{9, 8}, 11, 12, 13)

	if _, err := SplitCheckpoint(ck, func(int, int64) bool { return false }); err == nil ||
		!strings.Contains(err.Error(), "no users") {
		t.Errorf("empty split: err = %v, want one selecting no users", err)
	}

	odd, err := SplitCheckpoint(ck, func(slot int, sess int64) bool { return sess%2 == 1 })
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(odd.Sessions) != 2 || odd.Sessions[0] != 11 || odd.Sessions[1] != 13 {
		t.Errorf("split kept sessions %v, want [11 13]", odd.Sessions)
	}
	if odd.Epoch != ck.Epoch || !floatsIdentical(odd.W0, ck.W0) ||
		!floatsIdentical(odd.Objective, ck.Objective) {
		t.Error("split did not preserve the global state")
	}
	if len(odd.Dropped) != 2 || len(odd.Us) != 2 || len(odd.LastXi) != 2 {
		t.Error("split per-user slices not renumbered densely")
	}
}
