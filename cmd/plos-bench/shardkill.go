package main

// The -shard-kill variant of -shard-json: the self-healing acceptance
// scenario of the shard fault-tolerance tier (docs/FAULT_TOLERANCE.md,
// docs/SHARDING.md §failure modes). The parent runs the aggregator with
// shard-FT enabled (quorum of shards-1, unbounded stale carry, rejoin
// accept), SIGKILLs shard 0 once its epoch-1 checkpoint is on disk, respawns
// it from that checkpoint, and records the wall-clock time from the kill to
// the restored shard's rejoin hello. The snapshot — schema v2, a v1 report
// plus the `recovery` block — is committed as BENCH_8.json.
//
// The kill is sequenced by a parent-side gate on the aggregator↔shard
// connections rather than by timing: once the aggregator announces CCCP
// round 1 to the victim, every healthy shard's messages are held at the
// parent until the rejoin hello has been queued. The open reduce leg keeps
// the round from closing, so the run cannot finish before the victim is
// back — at any scale, on any machine.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"plos/internal/obs"
	"plos/internal/protocol"
	"plos/internal/transport"
)

// shardKillSchema versions the kill-and-recover snapshot layout: shard-v1
// plus the `recovery` object.
const shardKillSchema = "plos-bench/shard-v2"

// shardRecovery is the `recovery` block of a schema-v2 snapshot.
type shardRecovery struct {
	// KilledShard is the victim's shard id; Restarts the number of shards
	// re-attached through the checkpoint-restore rejoin handshake (1 when
	// the scenario worked).
	KilledShard int `json:"killed_shard"`
	Restarts    int `json:"shard_restarts"`
	// RejoinSeconds is time-to-rejoin: SIGKILL to the restored shard's
	// rejoin hello reaching the aggregator (process respawn + checkpoint
	// load + device restore handshake + dial).
	RejoinSeconds float64 `json:"rejoin_seconds"`
	// StaleReduces counts reduce legs folded from the victim's carried
	// partials while it was down (shard_stale_reduces_total).
	StaleReduces int64 `json:"stale_reduces"`
}

// killGate sequences the scenario from the parent, which proxies no traffic
// but wraps every aggregator-side connection. armed closes when the
// aggregator announces CCCP round 1 to the victim (the announce is what
// makes the victim write its epoch-1 checkpoint); from then on each healthy
// shard's delivered messages are held until release closes (the restarted
// shard's rejoin hello is queued).
type killGate struct {
	victim  int
	armed   chan struct{}
	release chan struct{}
	armOnce sync.Once
	relOnce sync.Once
}

func (g *killGate) arm()  { g.armOnce.Do(func() { close(g.armed) }) }
func (g *killGate) free() { g.relOnce.Do(func() { close(g.release) }) }

// gatedConn identifies its shard from the first received message (the
// shard hello carries the id in Round) and applies the gate's hold to
// healthy shards only.
type gatedConn struct {
	transport.Conn
	g *killGate

	mu    sync.Mutex
	shard int // -1 until the hello identifies it
}

func newGatedConn(c transport.Conn, g *killGate) *gatedConn {
	return &gatedConn{Conn: c, g: g, shard: -1}
}

func (c *gatedConn) id() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shard
}

func (c *gatedConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	c.mu.Lock()
	if c.shard == -1 && m.Type == transport.MsgShardHello {
		c.shard = m.Round
	}
	id := c.shard
	c.mu.Unlock()
	if id != c.g.victim {
		select {
		case <-c.g.armed:
			<-c.g.release
		default:
		}
	}
	return m, nil
}

func (c *gatedConn) Send(m transport.Message) error {
	if c.id() == c.g.victim && m.Type == transport.MsgShardRound && m.Round >= 1 {
		c.g.arm()
	}
	return c.Conn.Send(m)
}

// runShardKillJSON runs the kill-and-recover scenario and writes the
// schema-v2 snapshot to o.shardJSON.
func runShardKillJSON(o benchOptions) error {
	shards, devices, seed := o.shardCount, o.shardDevices, o.seed
	if shards < 2 {
		return fmt.Errorf("shard-kill: need at least 2 shards, got %d", shards)
	}
	if devices < shards {
		return fmt.Errorf("shard-kill: need at least one device per shard")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("shard-kill: %w", err)
	}
	tmp, err := os.MkdirTemp("", "plos-bench-kill")
	if err != nil {
		return fmt.Errorf("shard-kill: %w", err)
	}
	defer os.RemoveAll(tmp)
	ckpt := filepath.Join(tmp, "shard0.ckpt")
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("shard-kill: %w", err)
	}
	defer l.Close()

	const victim = 0
	specs := make([]string, shards)
	cmds := make([]*exec.Cmd, shards)
	from := 0
	for s := 0; s < shards; s++ {
		n := devices / shards
		if s < devices%shards {
			n++
		}
		specs[s] = fmt.Sprintf("%d:%d:%d:%d:%s", s, from, from+n, seed, l.Addr())
		if s == victim {
			specs[s] += "|" + ckpt
		}
		if cmds[s], err = spawnWorker(exe, specs[s]); err != nil {
			return fmt.Errorf("shard-kill: spawn shard %d: %w", s, err)
		}
		from += n
	}
	fmt.Fprintf(os.Stderr, "shard-kill: %d devices across %d shard processes on %s; shard %d will be killed at round 1\n",
		devices, shards, l.Addr(), victim)

	conns, err := l.AcceptN(shards)
	if err != nil {
		return fmt.Errorf("shard-kill: %w", err)
	}
	g := &killGate{victim: victim, armed: make(chan struct{}), release: make(chan struct{})}
	wired := make([]transport.Conn, len(conns))
	for i, c := range conns {
		wired[i] = newGatedConn(c, g)
	}

	cfg, dist := shardBenchConfig(seed)
	// Budget past the outage: round 0 runs clean, the kill lands in round 1,
	// and the restored shard needs clean rounds after its rejoin to re-solve
	// its devices. The tiny tolerance keeps CCCP from declaring convergence
	// while the victim is down (the degraded-round guard skips the carried
	// rounds — see the clean-round guard of internal/optimize.CCCP).
	cfg.MaxCCCPIter = 5
	cfg.CCCPTol = 1e-12
	reg := obs.NewRegistry()
	cfg.Obs = reg

	var mu sync.Mutex
	var killedAt, rejoinedAt time.Time

	// Rejoin accept loop: first message off a new connection is the restored
	// shard's rejoin hello. Queueing it releases the gate.
	rejoins := make(chan protocol.Rejoin, 1)
	stopAccept := make(chan struct{})
	var stopOnce sync.Once
	stopAcceptNow := func() { stopOnce.Do(func() { close(stopAccept) }) }
	defer stopAcceptNow()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return // listener closed: the run is over
			}
			go func(c transport.Conn) {
				m, err := c.Recv()
				if err != nil {
					_ = c.Close()
					return
				}
				mu.Lock()
				if rejoinedAt.IsZero() {
					rejoinedAt = time.Now()
				}
				mu.Unlock()
				select {
				case rejoins <- protocol.Rejoin{Conn: c, Hello: m}:
					g.free()
				case <-stopAccept:
					_ = c.Close()
				}
			}(c)
		}
	}()

	// Killer: once armed, wait for the epoch-1 checkpoint (the held round
	// cannot close in the meantime), SIGKILL the victim, respawn it from the
	// checkpoint. The gate stays held until the restored shard's rejoin
	// hello is queued — only a failure releases it early, so the run ends
	// (and the missing restart is reported below) instead of hanging.
	done := make(chan struct{})
	killErr := make(chan error, 1)
	respawned := make(chan *exec.Cmd, 1)
	go func() {
		err := func() error {
			select {
			case <-g.armed:
			case <-done:
				return nil // the run failed before round 1
			}
			deadline := time.Now().Add(time.Minute)
			for {
				if ck, err := protocol.LoadCheckpoint(ckpt); err == nil && ck.Epoch >= 1 {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("shard-kill: shard %d never wrote its epoch-1 checkpoint", victim)
				}
				time.Sleep(2 * time.Millisecond)
			}
			mu.Lock()
			killedAt = time.Now()
			mu.Unlock()
			if err := cmds[victim].Process.Kill(); err != nil {
				return fmt.Errorf("shard-kill: kill shard %d: %w", victim, err)
			}
			_ = cmds[victim].Wait()
			fmt.Fprintf(os.Stderr, "shard-kill: shard %d killed, respawning from %s\n", victim, ckpt)
			cmd, err := spawnWorker(exe, specs[victim])
			if err != nil {
				return fmt.Errorf("shard-kill: respawn shard %d: %w", victim, err)
			}
			respawned <- cmd
			// Failsafe: if the respawned worker dies before its rejoin hello
			// arrives, release the gate after a grace period so the run
			// finishes and the missing restart is reported.
			go func() {
				select {
				case <-g.release:
				case <-done:
					g.free()
				case <-time.After(2 * time.Minute):
					g.free()
				}
			}()
			return nil
		}()
		if err != nil {
			g.free()
		}
		killErr <- err
	}()

	start := time.Now()
	res, aggErr := protocol.RunAggregator(wired, protocol.AggConfig{
		Core: cfg, Dist: dist,
		FT: protocol.AggFTConfig{ShardQuorum: shards - 1, MaxStale: 1 << 20, Rejoin: rejoins},
	})
	wall := time.Since(start)
	close(done)
	if err := <-killErr; err != nil && aggErr == nil {
		aggErr = err
	}
	// Training is over: stop accepting, make in-flight queuers close their
	// connections (stopAccept), and drain anything already queued so a
	// straggling rejoin cannot leave a worker blocked on a reply forever.
	l.Close()
	stopAcceptNow()
	select {
	case rj := <-rejoins:
		_ = rj.Conn.Close()
	default:
	}
	for s, cmd := range cmds {
		if s == victim {
			continue // first incarnation already reaped by the killer
		}
		if werr := cmd.Wait(); werr != nil && aggErr == nil {
			aggErr = fmt.Errorf("shard worker %d: %w", s, werr)
		}
	}
	select {
	case cmd := <-respawned:
		// Keep draining late rejoin hellos while reaping: closing their
		// connections is what unblocks a worker that queued one after the
		// aggregator's final drain.
		waitDone := make(chan error, 1)
		go func() { waitDone <- cmd.Wait() }()
	reap:
		for {
			select {
			case werr := <-waitDone:
				if werr != nil && aggErr == nil {
					aggErr = fmt.Errorf("restarted shard worker %d: %w", victim, werr)
				}
				break reap
			case rj := <-rejoins:
				_ = rj.Conn.Close()
			}
		}
	default:
	}
	if aggErr != nil {
		return fmt.Errorf("shard-kill: %w", aggErr)
	}
	if res.Users != devices {
		return fmt.Errorf("shard-kill: aggregator saw %d users, want %d", res.Users, devices)
	}
	if res.Restarts != 1 {
		return fmt.Errorf("shard-kill: %d checkpoint-restore rejoins, want 1 (the killed shard never came back)", res.Restarts)
	}
	if res.ShardCauses[victim] == nil {
		return fmt.Errorf("shard-kill: no detach cause recorded for the killed shard")
	}
	mu.Lock()
	rejoin := rejoinedAt.Sub(killedAt)
	mu.Unlock()
	if rejoin <= 0 {
		return fmt.Errorf("shard-kill: rejoin time not measured (killed %v, rejoined %v)", killedAt, rejoinedAt)
	}

	report := shardReport{
		Schema: shardKillSchema, CPU: runtime.NumCPU(),
		Devices: devices, Shards: shards,
		Rounds: res.Info.CCCPIterations, ADMMIters: res.Info.ADMMIterations,
		Converged: res.Info.CCCPConverged, Objective: res.Info.Objective,
		WallSeconds:  wall.Seconds(),
		AggLinkBytes: res.Total.BytesSent + res.Total.BytesReceived,
		Recovery: &shardRecovery{
			KilledShard:   victim,
			Restarts:      res.Restarts,
			RejoinSeconds: rejoin.Seconds(),
			StaleReduces:  reg.CounterValue(obs.MetricShardStaleReduces),
		},
	}
	for _, s := range res.PerShard {
		report.PerShardBytes = append(report.PerShardBytes, s.BytesSent+s.BytesReceived)
	}
	if err := writeShardReport(o.shardJSON, &report); err != nil {
		return fmt.Errorf("shard-kill: %w", err)
	}
	fmt.Fprintf(os.Stderr,
		"shard-kill: %d rounds, shard %d detached (%v), %d stale reduces, rejoined in %.3fs; run finished in %.1fs\n",
		report.Rounds, victim, res.ShardCauses[victim], report.Recovery.StaleReduces,
		report.Recovery.RejoinSeconds, report.WallSeconds)
	fmt.Fprintln(os.Stderr, "shard snapshot written to", o.shardJSON)
	return nil
}
