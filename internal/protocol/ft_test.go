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

// ftNoSleep replaces backoff sleeps so redial loops run instantly.
func ftNoSleep(time.Duration) {}

// vecIdentical is bit-exact vector equality — the fault-tolerance layer
// promises fault-free runs are unchanged, not merely close.
func vecIdentical(a, b mat.Vector) bool {
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

// runPipesFT trains over pipes with independent wrappers on each end of
// every connection. Unlike runPipes it tolerates server errors and always
// closes the server conns before waiting for clients, so stragglers (and
// async chaos deliveries) unblock.
func runPipesFT(t *testing.T, users []core.UserData, cfg ServerConfig,
	wrapServer, wrapClient func(i int, c transport.Conn) transport.Conn) (*ServerResult, error, []*ClientResult, []error) {
	t.Helper()
	n := len(users)
	serverConns := make([]transport.Conn, n)
	clientResults := make([]*ClientResult, n)
	clientErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		if wrapServer != nil {
			sc = wrapServer(i, sc)
		}
		if wrapClient != nil {
			cc = wrapClient(i, cc)
		}
		serverConns[i] = sc
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			clientResults[i], clientErrs[i] = RunClient(conn, users[i], ClientOptions{Seed: int64(i)})
		}(i, cc)
	}
	res, err := RunServer(serverConns, cfg)
	for _, c := range serverConns {
		_ = c.Close()
	}
	wg.Wait()
	return res, err, clientResults, clientErrs
}

// TestFTFaultFreeBitIdentical is the core robustness guarantee: switching on
// the whole fault-tolerance stack (op timeouts, retry/backoff, round
// deadline, quorum, session resume) must not change a fault-free run by a
// single bit.
func TestFTFaultFreeBitIdentical(t *testing.T) {
	users, _ := makeUsers(11, 4)

	plain, err, _, plainErrs := runPipesFT(t, users, sweepConfig(), nil, nil)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	cfg := sweepConfig()
	rejoin := make(chan Rejoin, len(users))
	cfg.FT = FTConfig{
		RoundTimeout: time.Minute,
		Quorum:       0.5,
		Resume:       true,
		Rejoin:       rejoin,
	}
	policy := func(seed int64) transport.RetryPolicy {
		return transport.RetryPolicy{MaxAttempts: 4, Seed: seed, Sleep: ftNoSleep}
	}
	armor := func(base int64) func(i int, c transport.Conn) transport.Conn {
		return func(i int, c transport.Conn) transport.Conn {
			transport.SetOpTimeout(c, time.Minute)
			return transport.Retry(c, policy(base+int64(i)), nil)
		}
	}
	ft, err, _, ftErrs := runPipesFT(t, users, cfg, armor(100), armor(200))
	if err != nil {
		t.Fatalf("FT run: %v", err)
	}

	for i := range users {
		if plainErrs[i] != nil || ftErrs[i] != nil {
			t.Fatalf("client %d: plain err %v, ft err %v", i, plainErrs[i], ftErrs[i])
		}
		if ft.Dropped[i] {
			t.Fatalf("fault-free FT run dropped user %d", i)
		}
		if !vecIdentical(plain.Model.W[i], ft.Model.W[i]) {
			t.Errorf("user %d hyperplane differs with FT enabled", i)
		}
	}
	if !vecIdentical(plain.Model.W0, ft.Model.W0) {
		t.Errorf("global hyperplane differs with FT enabled:\nplain %v\n   ft %v",
			plain.Model.W0, ft.Model.W0)
	}
}

// TestQuorumAbort: with Quorum 0.9 over four devices, ceil(3.6) = 4 must
// stay active, so a single death aborts the run.
func TestQuorumAbort(t *testing.T) {
	users, _ := makeUsers(4, 4)
	n := len(users)
	serverConns := make([]transport.Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		serverConns[i] = sc
		conn := cc
		if i == 1 {
			conn = transport.FailAfter(cc, 6)
		}
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			_, _ = RunClient(conn, users[i], ClientOptions{Seed: int64(i)})
		}(i, conn)
	}
	cfg := sweepConfig()
	cfg.FT.Quorum = 0.9
	_, err := RunServer(serverConns, cfg)
	for _, c := range serverConns {
		_ = c.Close()
	}
	wg.Wait()
	if !errors.Is(err, ErrTooFewActive) {
		t.Errorf("err = %v, want ErrTooFewActive", err)
	}
}

// opHookConn invokes hook before every Send/Recv with the 1-based combined
// operation count. Safe for the protocol's single-goroutine client side.
type opHookConn struct {
	transport.Conn
	ops  int
	hook func(op int)
}

func (c *opHookConn) Send(m transport.Message) error {
	c.ops++
	c.hook(c.ops)
	return c.Conn.Send(m)
}

func (c *opHookConn) Recv() (transport.Message, error) {
	c.ops++
	c.hook(c.ops)
	return c.Conn.Recv()
}

// TestStragglerStaleReuse: a device that stalls far past the round deadline
// is carried on its last reported solution instead of being dropped.
func TestStragglerStaleReuse(t *testing.T) {
	bubble(t, func() {
		users, _ := makeUsers(12, 3)
		reg := obs.NewRegistry()
		cfg := sweepConfig()
		cfg.Core.Obs = reg
		cfg.FT.RoundTimeout = 60 * time.Millisecond
		cfg.FT.MaxStale = 1000

		const victim = 0
		res, err, _, clientErrs := runPipesFT(t, users, cfg, nil,
			func(i int, c transport.Conn) transport.Conn {
				if i != victim {
					return c
				}
				// Op 6 is the params receive of ADMM iteration 1 (after the
				// hello exchange, start-round, and the full iteration 0), so the
				// victim already has a reusable solution on file.
				return &opHookConn{Conn: c, hook: func(op int) {
					if op == 6 {
						time.Sleep(250 * time.Millisecond)
					}
				}}
			})
		if err != nil {
			t.Fatalf("RunServer: %v", err)
		}
		if res.Dropped[victim] {
			t.Fatal("straggler was dropped despite the stale budget")
		}
		if res.Model.W[victim] == nil {
			t.Error("straggler should keep a hyperplane in the final model")
		}
		if n := reg.CounterValue(obs.MetricProtocolStaleReuses); n == 0 {
			t.Error("stale-reuse counter never incremented")
		}
		if n := reg.CounterValue(obs.MetricProtocolDroppedDevices); n != 0 {
			t.Errorf("dropped-devices counter = %d, want 0", n)
		}
		// The healthy users must have finished cleanly; the victim may have been
		// cut off mid-stall when the test closed the server conns.
		for i, e := range clientErrs {
			if i != victim && e != nil {
				t.Errorf("healthy client %d: %v", i, e)
			}
		}
	})
}

// gateConn blocks before its n-th combined operation until release closes.
// It sequences the resume test: the server cannot finish the gated iteration
// until the victim's rejoin is already queued.
type gateConn struct {
	transport.Conn
	ops     int
	n       int
	release <-chan struct{}
}

func (c *gateConn) step() {
	c.ops++
	if c.ops == c.n {
		<-c.release
	}
}

func (c *gateConn) Send(m transport.Message) error {
	c.step()
	return c.Conn.Send(m)
}

func (c *gateConn) Recv() (transport.Message, error) {
	c.step()
	return c.Conn.Recv()
}

// TestClientResumeMidTraining: a device whose connection dies mid-round
// redials, presents its session token, and is re-attached to its slot; the
// run completes with no device dropped.
func TestClientResumeMidTraining(t *testing.T) {
	users, _ := makeUsers(13, 3)
	reg := obs.NewRegistry()
	rejoinCh := make(chan Rejoin, 1)
	cfg := ServerConfig{
		Core: core.Config{Lambda: 50, Cl: 1, Cu: 0.2, MaxCCCPIter: 2, MaxCutIter: 8, Obs: reg},
		// Plenty of iterations per round and a tolerance ADMM cannot reach,
		// so the redial always lands while the round is still in flight.
		Dist: core.DistConfig{MaxADMMIter: 20, EpsAbs: 1e-12},
		FT:   FTConfig{Resume: true, Rejoin: rejoinCh, MaxStale: 1000},
	}

	const victim = 0
	n := len(users)
	serverConns := make([]transport.Conn, n)
	clientConns := make([]transport.Conn, n)
	// redialGate delays the victim's second dial until the server has
	// entered iteration 4 — guaranteeing at least one ADMM iteration served
	// the victim from its stale solution before the rejoin can land.
	redialGate := make(chan struct{})
	// gateRelease then holds iteration 4 open until the rejoin is queued,
	// so the re-attachment always happens with iterations to spare.
	gateRelease := make(chan struct{})
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		serverConns[i] = sc
		clientConns[i] = cc
	}

	var wg sync.WaitGroup
	clientResults := make([]*ClientResult, n)
	clientErrs := make([]error, n)

	// The victim's first connection dies at its 10th operation — the params
	// receive of ADMM iteration 3, after three delivered updates. Its second
	// dial builds a fresh pipe whose server end is fed to the rejoin channel
	// the way plos.Serve's accept loop would.
	dialCount := 0
	victimDial := func() (transport.Conn, error) {
		dialCount++
		switch dialCount {
		case 1:
			return transport.FailAfter(clientConns[victim], 9), nil
		case 2:
			<-redialGate
			sc, cc := newLink()
			go func() {
				m, err := sc.Recv()
				if err != nil {
					_ = sc.Close()
					return
				}
				rejoinCh <- Rejoin{Conn: sc, Hello: m}
				close(gateRelease)
			}()
			return cc, nil
		default:
			return nil, errors.New("no third connection in this test")
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		clientResults[victim], clientErrs[victim] = RunClientLoop(victimDial, users[victim],
			ClientOptions{Seed: int64(victim), MaxRedials: 2,
				RedialDelay: time.Millisecond, Sleep: ftNoSleep})
	}()
	for i := 1; i < n; i++ {
		conn := clientConns[i]
		if i == 1 {
			// Op 12 is user 1's params receive of iteration 4: by then the
			// server has finished iteration 3 and served the victim stale.
			conn = &opHookConn{Conn: conn, hook: func(op int) {
				if op == 12 {
					close(redialGate)
				}
			}}
		}
		if i == 2 {
			// Op 13 is user 2's update send of iteration 4: iteration 4
			// cannot complete — and the server cannot run out of rounds —
			// before the victim's rejoin is queued.
			conn = &gateConn{Conn: conn, n: 13, release: gateRelease}
		}
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			clientResults[i], clientErrs[i] = RunClient(conn, users[i], ClientOptions{Seed: int64(i)})
		}(i, conn)
	}

	res, err := RunServer(serverConns, cfg)
	for _, c := range serverConns {
		_ = c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
	}
	if res.Dropped[victim] {
		t.Fatal("victim dropped despite successful resume")
	}
	if res.Model.W[victim] == nil {
		t.Error("victim missing from the final model")
	}
	if clientResults[victim].Session == 0 {
		t.Error("victim never received a session token")
	}
	if !clientResults[victim].W.Equal(res.Model.W[victim], 1e-9) {
		t.Error("victim's device-side hyperplane disagrees with the server")
	}
	if got := reg.CounterValue(obs.MetricProtocolReconnects); got != 1 {
		t.Errorf("reconnects = %d, want 1", got)
	}
	if reg.CounterValue(obs.MetricProtocolStaleReuses) == 0 {
		t.Error("victim's detached rounds should have used stale reuse")
	}
	if reg.CounterValue(obs.MetricProtocolDroppedDevices) != 0 {
		t.Error("no device should have been dropped")
	}
}

// TestChaosSoakTraining runs training under the seeded chaos harness (drops,
// duplicates, corruption, delays, link flaps on every device link) with the
// retry layer absorbing the faults. Because every chaos fault is
// content-preserving and the protocol is lockstep, the trained model must be
// bit-identical to the clean run.
func TestChaosSoakTraining(t *testing.T) {
	users, _ := makeUsers(40, 3)

	clean, err, _, _ := runPipesFT(t, users, sweepConfig(), nil, nil)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	reg := obs.NewRegistry()
	policy := func(seed int64) transport.RetryPolicy {
		return transport.RetryPolicy{MaxAttempts: 10, Seed: seed, Sleep: ftNoSleep}
	}
	chaotic, err, _, chaosClientErrs := runPipesFT(t, users, sweepConfig(),
		func(i int, c transport.Conn) transport.Conn {
			// The server side needs the dedup layer because client-side chaos
			// duplicates deliveries toward the server.
			return transport.Retry(c, policy(1000+int64(i)), reg)
		},
		func(i int, c transport.Conn) transport.Conn {
			chaos := transport.Chaos(c, transport.ChaosConfig{
				Seed:        100 + int64(i),
				DropProb:    0.05,
				DupProb:     0.05,
				CorruptProb: 0.03,
				DelayProb:   0.10,
				MaxDelay:    time.Millisecond,
				FlapProb:    0.01,
				Sleep:       ftNoSleep,
			}, reg)
			return transport.Retry(chaos, policy(int64(i)), reg)
		})
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	for i, e := range chaosClientErrs {
		if e != nil {
			t.Fatalf("chaos client %d: %v", i, e)
		}
	}
	for i := range users {
		if chaotic.Dropped[i] {
			t.Fatalf("user %d dropped under chaos — retry budget should absorb every fault", i)
		}
		if !vecIdentical(clean.Model.W[i], chaotic.Model.W[i]) {
			t.Errorf("user %d model differs under chaos", i)
		}
	}
	if !vecIdentical(clean.Model.W0, chaotic.Model.W0) {
		t.Error("global model differs under chaos")
	}
	if reg.CounterValue(obs.MetricChaosFaults) == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	}
	if reg.CounterValue(obs.MetricTransportRetries) == 0 {
		t.Error("retry layer never fired despite injected faults")
	}
}

// doneBlocker simulates a coordinator crash between the post-round
// checkpoint and the final broadcast: the Done send fails and kills the
// connection, exactly as a process exit would.
type doneBlocker struct {
	transport.Conn
}

func (d *doneBlocker) Send(m transport.Message) error {
	if m.Type == transport.MsgDone {
		_ = d.Conn.Close()
		return errors.New("injected coordinator crash at done")
	}
	return d.Conn.Send(m)
}

// TestCheckpointResumeBitIdentical: run one CCCP round, "crash" the
// coordinator, restore a fresh server from the checkpoint with the same
// (still-running) clients, and finish. The final model must be bit-identical
// to an uninterrupted run, and the re-saved checkpoint must advance.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	users, _ := makeUsers(14, 3)
	n := len(users)

	reference, err, _, _ := runPipesFT(t, users, sweepConfig(), nil, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	path := t.TempDir() + "/run.ckpt"
	dials := make([]chan transport.Conn, n)
	for i := range dials {
		dials[i] = make(chan transport.Conn, 1)
	}
	var wg sync.WaitGroup
	clientResults := make([]*ClientResult, n)
	clientErrs := make([]error, n)
	for i := 0; i < n; i++ {
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
			clientResults[i], clientErrs[i] = RunClientLoop(dial, users[i],
				ClientOptions{Seed: int64(i), MaxRedials: 2,
					RedialDelay: time.Millisecond, Sleep: ftNoSleep})
		}(i)
	}

	// Phase 1: train exactly one round, checkpoint it, then crash at Done.
	phase1 := make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		phase1[i] = &doneBlocker{Conn: sc}
		dials[i] <- cc
	}
	cfg1 := sweepConfig()
	cfg1.Core.MaxCCCPIter = 1
	cfg1.FT.CheckpointPath = path
	if _, err := RunServer(phase1, cfg1); err != nil {
		t.Fatalf("phase 1: %v", err)
	}

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	if ck.Epoch != 1 {
		t.Fatalf("checkpoint epoch = %d, want 1", ck.Epoch)
	}

	// Phase 2: a fresh coordinator restores the checkpoint; the surviving
	// clients redial and re-attach by session token.
	phase2 := make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		phase2[i] = sc
		dials[i] <- cc
	}
	cfg2 := sweepConfig()
	cfg2.FT.CheckpointPath = path
	cfg2.FT.Restore = ck
	res, err := RunServer(phase2, cfg2)
	for _, c := range phase2 {
		_ = c.Close()
	}
	wg.Wait()
	if err != nil {
		t.Fatalf("phase 2: %v", err)
	}

	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
		if clientResults[i].Session == 0 {
			t.Errorf("client %d never held a session token", i)
		}
	}
	for i := range users {
		if res.Dropped[i] {
			t.Fatalf("user %d dropped across the restore", i)
		}
		if !vecIdentical(reference.Model.W[i], res.Model.W[i]) {
			t.Errorf("user %d model differs from the uninterrupted run", i)
		}
		if !vecIdentical(reference.Model.W[i], clientResults[i].W) {
			t.Errorf("user %d device-side model differs from the uninterrupted run", i)
		}
	}
	if !vecIdentical(reference.Model.W0, res.Model.W0) {
		t.Error("global model differs from the uninterrupted run")
	}
	final, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Epoch != 2 {
		t.Errorf("final checkpoint epoch = %d, want 2", final.Epoch)
	}
}

// TestResumeIntoFinishedSessionReturns: a redialling device whose hello
// nobody ever answers — the session ended while it was away and the accept
// side never read its queue again — must come back with a connection error
// (one a further redial may fix) inside the reply deadline RunClientLoop puts
// on redials, not wait in Recv for the server process to exit. (plos.Serve
// answers such a hello with a typed "session over"; this is the device's own
// guard.)
func TestResumeIntoFinishedSessionReturns(t *testing.T) {
	users, _ := makeUsers(29, 1)
	st, err := newClientState(users[0], ClientOptions{Session: 7})
	if err != nil {
		t.Fatal(err)
	}
	st.replyWithin = 20 * time.Millisecond // RunClientLoop's is resumeReplyTimeout

	sc, cc := newLink()
	defer sc.Close()
	hello := make(chan transport.Message, 1)
	go func() {
		m, _ := sc.Recv() // read, then left in a queue nobody drains
		hello <- m
	}()
	done := make(chan error, 1)
	go func() {
		_, err := st.run(cc)
		done <- err
	}()
	select {
	case err := <-done:
		var ce *connError
		if !errors.As(err, &ce) || !errors.Is(err, transport.ErrClosed) {
			t.Errorf("got %v, want a connection error after the reply deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("device still waiting for a hello reply nobody will send")
	}
	if m := <-hello; m.Type != transport.MsgHello || m.Session != 7 {
		t.Errorf("server side read %v (session %d), want the resume hello", m.Type, m.Session)
	}
}
