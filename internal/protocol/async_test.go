package protocol

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"plos/internal/admm"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/transport"
)

// runPipesAsync is runPipesFT with every client offering asynchronous mode
// in its hello.
func runPipesAsync(t *testing.T, users []core.UserData, cfg ServerConfig,
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
			// Close on exit so a client that fails its handshake (e.g. the
			// negotiation test) unblocks the server instead of deadlocking
			// the pipe.
			defer conn.Close()
			clientResults[i], clientErrs[i] = RunClient(conn, users[i], ClientOptions{Seed: int64(i), Async: true})
		}(i, cc)
	}
	res, err := RunServer(serverConns, cfg)
	for _, c := range serverConns {
		_ = c.Close()
	}
	wg.Wait()
	return res, err, clientResults, clientErrs
}

// turnGate fixes the arrival order of an asynchronous run: device updates
// reach the coordinator one at a time in round-robin order, whatever the
// scheduler does. It wraps the server ends of the pipes (holding an update
// inside Recv until it is that device's turn) and listens to the flight
// stream as the registry's health sink: the async-snapshot record that
// re-arms the turn holder proves its update was consumed and passes the turn
// on; run-end opens the gate, because the final drain re-arms nobody and
// folds nothing, so its order is immaterial.
//
// A test that injects a fault sequences it the same way: hold keeps every
// update back — the coordinator's next fold cannot happen — until release,
// and onRecord shows the test the coordinator's flight stream.
type turnGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n, turn  int
	released bool // the turn holder's update is with the coordinator
	open     bool
	holds    int
	onRecord func(obs.Record)
}

func newTurnGate(n int) *turnGate {
	g := &turnGate{n: n}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *turnGate) wait(id int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.open && (g.holds > 0 || g.turn != id || g.released) {
		g.cond.Wait()
	}
	g.released = true
}

func (g *turnGate) hold() {
	g.mu.Lock()
	g.holds++
	g.mu.Unlock()
}

func (g *turnGate) release() {
	g.mu.Lock()
	g.holds--
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *turnGate) openAll() {
	g.mu.Lock()
	g.open = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

func (g *turnGate) ObserveRecord(rec obs.Record) {
	if g.onRecord != nil {
		g.onRecord(rec)
	}
	switch rec.Kind {
	case obs.RecordAsyncSnapshot:
		g.mu.Lock()
		if g.released && rec.User == g.turn {
			g.turn, g.released = (g.turn+1)%g.n, false
		}
		g.mu.Unlock()
		g.cond.Broadcast()
	case obs.RecordRunEnd:
		g.openAll()
	}
}

func (g *turnGate) HealthCode() int                  { return 0 }
func (g *turnGate) ReportRemote(string, int, string) {}

type turnConn struct {
	transport.Conn
	id   int
	gate *turnGate
}

func (c *turnConn) Recv() (transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == transport.MsgUpdate {
		c.gate.wait(c.id)
	}
	return m, err
}

// Close opens the gate so an aborted run cannot strand held updates.
func (c *turnConn) Close() error {
	c.gate.openAll()
	return c.Conn.Close()
}

// runAsyncInTurn is a fault-free asynchronous run under a turnGate.
func runAsyncInTurn(t *testing.T, users []core.UserData, cfg ServerConfig) (*ServerResult, []*ClientResult, *obs.Registry) {
	t.Helper()
	gate := newTurnGate(len(users))
	reg := obs.NewRegistry()
	reg.SetFlightRecorder(obs.NewFlightRecorder(nil, 0))
	reg.SetHealthSink(gate)
	cfg.Async = true
	cfg.Core.Obs = reg
	res, err, clients, clientErrs := runPipesAsync(t, users, cfg,
		func(i int, c transport.Conn) transport.Conn { return &turnConn{Conn: c, id: i, gate: gate} }, nil)
	if err != nil {
		t.Fatalf("async run: %v", err)
	}
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("async client %d: %v", i, e)
		}
	}
	return res, clients, reg
}

// TestAsyncWireMatchesSyncAccuracy: the asynchronous wire protocol must
// train to the same neighborhood as the synchronous one — personalized
// accuracy within noise and the Eq. (23) objective within 10% — while
// folding updates per arrival (async_updates_total > 0).
//
// Which neighborhood an asynchronous run lands in depends on arrival order:
// left to the scheduler, this 4-user problem ends anywhere from 28% below
// to 20% above the synchronous objective on a loaded host. The comparison is
// therefore made on one fixed order (turnGate), under which the run is
// reproducible to the bit — checked by running it twice.
func TestAsyncWireMatchesSyncAccuracy(t *testing.T) {
	users, truths := makeUsers(21, 4)
	base := ServerConfig{Core: core.Config{Lambda: 50, Cl: 1, Cu: 0.2, MaxCCCPIter: 6}}

	syncRes, err, _, syncErrs := runPipesFT(t, users, base, nil, nil)
	if err != nil {
		t.Fatalf("sync run: %v", err)
	}
	for i, e := range syncErrs {
		if e != nil {
			t.Fatalf("sync client %d: %v", i, e)
		}
	}

	asyncRes, clients, reg := runAsyncInTurn(t, users, base)
	again, _, _ := runAsyncInTurn(t, users, base)
	if math.Float64bits(again.Info.Objective) != math.Float64bits(asyncRes.Info.Objective) ||
		!vecIdentical(again.Model.W0, asyncRes.Model.W0) {
		t.Errorf("a fixed arrival order must fix the run: objective %v then %v",
			asyncRes.Info.Objective, again.Info.Objective)
	}
	var accSync, accAsync float64
	for i := range users {
		if asyncRes.Dropped[i] {
			t.Fatalf("user %d dropped in a fault-free async run", i)
		}
		accSync += accuracy(syncRes.Model.W[i], users[i], truths[i])
		accAsync += accuracy(asyncRes.Model.W[i], users[i], truths[i])
		if !vecIdentical(clients[i].W, asyncRes.Model.W[i]) {
			t.Errorf("user %d: client's personalized model differs from the server's", i)
		}
	}
	accSync /= float64(len(users))
	accAsync /= float64(len(users))
	if accAsync < 0.8 {
		t.Errorf("async wire accuracy = %v", accAsync)
	}
	if math.Abs(accSync-accAsync) > 0.1 {
		t.Errorf("sync acc %v vs async acc %v", accSync, accAsync)
	}
	objSync, objAsync := syncRes.Info.Objective, asyncRes.Info.Objective
	if gap := math.Abs(objSync-objAsync) / math.Abs(objSync); gap > 0.10 {
		t.Errorf("objective gap %.1f%%: sync %v vs async %v", 100*gap, objSync, objAsync)
	}
	if reg.CounterValue(obs.MetricAsyncUpdates) == 0 {
		t.Error("async run folded nothing (async_updates_total = 0)")
	}
	if asyncRes.Info.ADMMIterations == 0 {
		t.Error("TrainInfo.ADMMIterations should count the folds")
	}
}

// TestAsyncModeNegotiation pins the handshake contract: a device that
// offers asynchronous mode fails fast against a synchronous server, and an
// asynchronous server still serves devices that never offered (their flow
// is identical — params in, update out).
func TestAsyncModeNegotiation(t *testing.T) {
	users, _ := makeUsers(22, 2)

	// Async clients against a sync server: the missing confirmation must
	// fail the client handshake rather than silently training lockstep.
	_, err, _, clientErrs := runPipesAsync(t, users, sweepConfig(), nil, nil)
	if err == nil {
		t.Error("sync server should fail once async clients hang up")
	}
	for i, e := range clientErrs {
		if e == nil || !strings.Contains(e.Error(), "asynchronous") {
			t.Errorf("client %d should reject the unconfirmed handshake, got %v", i, e)
		}
	}

	// Sync clients against an async server: served normally.
	cfg := sweepConfig()
	cfg.Async = true
	res, err2, _, syncErrs := runPipesFT(t, users, cfg, nil, nil)
	if err2 != nil {
		t.Fatalf("async server with sync clients: %v", err2)
	}
	for i, e := range syncErrs {
		if e != nil {
			t.Fatalf("sync client %d against async server: %v", i, e)
		}
	}
	for i := range users {
		if res.Dropped[i] {
			t.Errorf("user %d dropped", i)
		}
	}
}

// TestSyncHandshakeBytesUnchanged pins the synchronous handshake frames to
// their exact pre-async bytes: the negotiation reuses the hello's Users
// field and the reply's Samples field, both zero for sync peers, so
// enabling the feature must not move a single sync-mode wire byte.
func TestSyncHandshakeBytesUnchanged(t *testing.T) {
	hello := transport.Message{
		Type:    transport.MsgHello,
		Dim:     3,
		Samples: 24,
		Labeled: 10,
		W:       []float64{0.5, -0.25, 1},
		Session: 7,
	}
	reply := transport.Message{
		Type:  transport.MsgHello,
		Users: 4,
		Dim:   3,
		Config: &transport.WireConfig{
			Lambda: 100, Cl: 1, Cu: 0.2, Epsilon: 1e-3, Rho: 1,
			MaxCutIter: 60, QPMaxIter: 5000,
		},
		Session: 7,
	}
	const wantHello = "5003010000000000000000000000000000000300000000000000180000000000" +
		"00000a000000000000000000000000000000000000000000000007000000000000000000000000000000" +
		"00000000000000000000000003000000000000000000e03f000000000000d0bf000000000000f03f0000000000"
	const wantReply = "50030100000000000000000000000000000003000000000000000000000000000000000000000000000004000000000000000000000000000000070000000000000000000000000000000000000000000000000000000000000000000000010000000000005940000000000000f03f9a9999999999c93ffca9f1d24d62503f000000000000f03f3c000000000000008813000000000000000000"
	for _, c := range []struct {
		name string
		msg  transport.Message
		want string
	}{{"client hello", hello, wantHello}, {"server reply", reply, wantReply}} {
		got := transport.EncodeMessage(c.msg)
		want, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatalf("bad pinned hex for %s: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s bytes changed:\n got %s\nwant %s", c.name, hex.EncodeToString(got), c.want)
		}
	}

	// Sanity: the async offer/confirm occupies exactly the reused fields.
	aHello := hello
	aHello.Users = asyncHello
	aReply := reply
	aReply.Samples = asyncHello
	if bytes.Equal(transport.EncodeMessage(aHello), transport.EncodeMessage(hello)) {
		t.Error("async hello offer should change the encoded Users field")
	}
	if bytes.Equal(transport.EncodeMessage(aReply), transport.EncodeMessage(reply)) {
		t.Error("async hello confirm should change the encoded Samples field")
	}
}

// TestAsyncChaosSoak: PR 3's chaos harness must hold in asynchronous mode —
// the retry layer absorbs every injected fault, nobody is dropped, and the
// run still trains. Bit-identity with a clean run is NOT asserted (fold
// order is arrival order by design); convergence is.
func TestAsyncChaosSoak(t *testing.T) {
	users, truths := makeUsers(40, 3)
	reg := obs.NewRegistry()
	cfg := sweepConfig()
	cfg.Async = true
	cfg.Core.Obs = reg
	policy := func(seed int64) transport.RetryPolicy {
		return transport.RetryPolicy{MaxAttempts: 10, Seed: seed, Sleep: ftNoSleep}
	}
	res, err, _, clientErrs := runPipesAsync(t, users, cfg,
		func(i int, c transport.Conn) transport.Conn {
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
		t.Fatalf("async chaos run: %v", err)
	}
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("async chaos client %d: %v", i, e)
		}
	}
	var acc float64
	for i := range users {
		if res.Dropped[i] {
			t.Fatalf("user %d dropped under chaos — retry budget should absorb every fault", i)
		}
		acc += accuracy(res.Model.W[i], users[i], truths[i])
	}
	if acc/float64(len(users)) < 0.75 {
		t.Errorf("accuracy under chaos = %v", acc/float64(len(users)))
	}
	if reg.CounterValue(obs.MetricChaosFaults) == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	}
}

// killAfterConn is the victim's server-side connection: once the coordinator
// has been handed the victim's last update before its link dies, every
// further update is held until the redial's hello is queued.
type killAfterConn struct {
	*turnConn
	updates int
	last    int
}

func (c *killAfterConn) Recv() (transport.Message, error) {
	m, err := c.turnConn.Recv()
	if err == nil && m.Type == transport.MsgUpdate {
		if c.updates++; c.updates == c.last {
			c.gate.hold()
		}
	}
	return m, err
}

// Close is the coordinator retiring the dead link mid-run: unlike a
// turnConn's, it must leave the gate shut.
func (c *killAfterConn) Close() error { return c.turnConn.Conn.Close() }

// TestAsyncClientResumeMidTraining: session resume must work unchanged in
// asynchronous mode — a device whose connection dies mid-run redials with
// its token, re-attaches, and finishes without being dropped.
//
// Left to the scheduler, the redial races the training (which may be over
// before the hello is queued) and the arrival order. Both are fixed here the
// way TestAsyncWireMatchesSyncAccuracy fixes arrivals: updates reach the
// coordinator in turn; the rejoin hello is queued only once the coordinator
// has recorded the link's failure; and after the victim's last update on the
// dying link no fold happens until that hello is in the queue the next drain
// reads. The run is then reproducible to the bit — checked by running it
// twice.
func TestAsyncClientResumeMidTraining(t *testing.T) {
	users, _ := makeUsers(23, 3)
	first, firstClients := asyncResumeRun(t, users)
	again, againClients := asyncResumeRun(t, users)
	if !vecIdentical(again.Model.W0, first.Model.W0) ||
		!floatsIdentical(again.Info.ObjectiveHistory, first.Info.ObjectiveHistory) {
		t.Errorf("a sequenced kill must fix the run: objectives %v then %v",
			first.Info.ObjectiveHistory, again.Info.ObjectiveHistory)
	}
	for i := range users {
		if !vecIdentical(again.Model.W[i], first.Model.W[i]) || !vecIdentical(againClients[i].W, firstClients[i].W) {
			t.Errorf("user %d: the two runs ended on different models", i)
		}
	}
}

// asyncResumeRun is one sequenced kill-and-resume run of
// TestAsyncClientResumeMidTraining.
func asyncResumeRun(t *testing.T, users []core.UserData) (*ServerResult, []*ClientResult) {
	t.Helper()
	const victim = 0
	n := len(users)
	gate := newTurnGate(n)
	noticed := make(chan struct{}) // the coordinator recorded the victim's dead link
	gate.onRecord = func(rec obs.Record) {
		if rec.Kind == obs.RecordDeviceDrop && rec.User == victim {
			close(noticed)
		}
	}
	reg := obs.NewRegistry()
	reg.SetFlightRecorder(obs.NewFlightRecorder(nil, 0))
	reg.SetHealthSink(gate)
	rejoinCh := make(chan Rejoin, 1)
	cfg := ServerConfig{
		Core:  core.Config{Lambda: 50, Cl: 1, Cu: 0.2, MaxCCCPIter: 2, MaxCutIter: 8, Obs: reg},
		Async: true,
		// A tolerance the fold cannot reach keeps each round folding up to
		// its MaxADMMIter·T budget, so the kill lands mid-round.
		Dist: core.DistConfig{EpsAbs: 1e-12},
		FT:   FTConfig{Resume: true, Rejoin: rejoinCh, MaxStale: 1000},
	}

	serverConns := make([]transport.Conn, n)
	clientConns := make([]transport.Conn, n)
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		serverConns[i] = &turnConn{Conn: sc, id: i, gate: gate}
		clientConns[i] = cc
	}
	// The victim's first connection dies at its 10th operation: hello, reply,
	// start-round, then three params/update exchanges. Its redial builds a
	// fresh link whose server end is fed to the rejoin channel the way
	// plos.Serve's accept loop would.
	serverConns[victim] = &killAfterConn{turnConn: serverConns[victim].(*turnConn), last: 3}

	var wg sync.WaitGroup
	clientResults := make([]*ClientResult, n)
	clientErrs := make([]error, n)
	dialCount := 0
	victimDial := func() (transport.Conn, error) {
		dialCount++
		switch dialCount {
		case 1:
			return transport.FailAfter(clientConns[victim], 9), nil
		case 2:
			sc, cc := newLink()
			go func() {
				m, err := sc.Recv()
				if err != nil {
					_ = sc.Close()
					return
				}
				<-noticed
				rejoinCh <- Rejoin{Conn: &turnConn{Conn: sc, id: victim, gate: gate}, Hello: m}
				gate.release()
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
			ClientOptions{Seed: int64(victim), Async: true, MaxRedials: 2,
				RedialDelay: time.Millisecond, Sleep: ftNoSleep})
	}()
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			clientResults[i], clientErrs[i] = RunClient(conn, users[i],
				ClientOptions{Seed: int64(i), Async: true})
		}(i, clientConns[i])
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
		t.Fatal("victim dropped despite resume")
	}
	if reg.CounterValue(obs.MetricProtocolReconnects) != 1 {
		t.Errorf("%d reconnects recorded, want the victim's one", reg.CounterValue(obs.MetricProtocolReconnects))
	}
	if clientResults[victim].W == nil {
		t.Error("victim finished without a personalized model")
	}
	return res, clientResults
}

// TestAsyncFlightRecords: asynchronous runs must leave an analyzable trail —
// an async-snapshot record per personalized launch and an async-fold record
// per folded arrival, carrying the staleness and applied weight.
func TestAsyncFlightRecords(t *testing.T) {
	users, _ := makeUsers(24, 3)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	reg.SetFlightRecorder(obs.NewFlightRecorder(&buf, 64))
	cfg := sweepConfig()
	cfg.Async = true
	cfg.Core.Obs = reg
	if _, err, _, _ := runPipesAsync(t, users, cfg, nil, nil); err != nil {
		t.Fatalf("async run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"rec":"async-snapshot"`) {
		t.Error("no async-snapshot records in the flight stream")
	}
	if !strings.Contains(out, `"rec":"async-fold"`) {
		t.Error("no async-fold records in the flight stream")
	}
	if !strings.Contains(out, `"staleness":`) || !strings.Contains(out, `"weight":`) {
		t.Error("async-fold records should carry staleness and weight")
	}
}

// TestAsyncRejectsReduceGroups: the sharded plane is lockstep by
// construction; combining it with Async must fail loudly up front.
func TestAsyncRejectsReduceGroups(t *testing.T) {
	sc, cc := newLink()
	defer sc.Close()
	defer cc.Close()
	_, err := RunServer([]transport.Conn{sc}, ServerConfig{
		Async:        true,
		ReduceGroups: [][]int{{0}},
	})
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("want incompatibility error, got %v", err)
	}
}

// latchEvent is one step of a scripted asynchronous round: a fold of one
// arrival, a Seed or Drop between folds, or a change of coverage (a device
// detaching or reporting, which the stop rule reads besides the residuals).
type latchEvent struct {
	op   string // "fold", "seed", "drop", "cover", "uncover"
	user int
	x    mat.Vector
}

// latchStops runs a script twice over — once under the eager rule, which
// computes the primal residual right after every fold, and once under
// asyncLatch with the round loop's discipline (pin before a Seed or Drop) —
// and returns the event index both first stop at, -1 for never. It fails the
// test at the first event where the two disagree.
func latchStop(t *testing.T, script []latchEvent, users int, eps float64) int {
	t.Helper()
	fold, err := admm.NewAsyncFold(mat.NewVector(3), users, 1, admm.DJAMWeight(2))
	if err != nil {
		t.Fatal(err)
	}
	latch := newAsyncLatch(fold, eps)
	folded, covered := 0, false
	var last admm.Residuals
	lastN, stop := 0, -1
	for i, e := range script {
		switch e.op {
		case "fold":
			dual, n := fold.Fold([]admm.FoldEntry{{User: e.user, X: e.x}})
			last, lastN = admm.Residuals{Primal: fold.Primal(), Dual: dual}, n
			latch.folded(dual, n)
			folded++
		case "seed":
			latch.pin()
			fold.Seed(e.user, e.x)
		case "drop":
			latch.pin()
			fold.Drop(e.user)
		case "cover", "uncover":
			covered = e.op == "cover"
		}
		eagerDone := folded > 0 && covered &&
			last.Primal <= math.Sqrt(float64(lastN))*eps && last.Dual <= eps
		lazyDone := folded > 0 && covered && latch.converged()
		if eagerDone != lazyDone {
			t.Fatalf("event %d (%s): eager rule says %v, lazy primal %v", i, e.op, eagerDone, lazyDone)
		}
		if eagerDone && stop < 0 {
			stop = i
		}
	}
	return stop
}

// TestAsyncLatchStopsWithEagerRule: the round latch computes the primal
// residual only where the stop rule reads it, yet stops on the same event as
// the rule that computed it after every fold — when the residuals fall under
// ε on a fold, when coverage arrives after a Seed has moved a standing
// solution (the latch pinned the last fold's primal before the Seed), and
// never when the dual passes but the primal does not.
func TestAsyncLatchStopsWithEagerRule(t *testing.T) {
	const users, eps = 3, 1e-6
	c := mat.Vector{0.3, -1.2, 0.8}
	folds := func(script []latchEvent, n int, x func(u int) mat.Vector) []latchEvent {
		for k := 0; k < n; k++ {
			script = append(script, latchEvent{op: "fold", user: k % users, x: x(k % users)})
		}
		return script
	}
	same := func(int) mat.Vector { return c }
	apart := func(u int) mat.Vector { return mat.Vector{c[0] + float64(u), c[1], c[2]} }
	far := mat.Vector{5, 5, 5}

	// Covered throughout: the fleet agrees on c and the rule fires on a fold.
	script := folds([]latchEvent{{op: "cover"}}, 400, same)
	if stop := latchStop(t, script, users, eps); stop < 0 || script[stop].op != "fold" {
		t.Fatalf("converging fleet: stop at %d, want on a fold", stop)
	}

	// Converged while a device is still uncovered; a straggler's late reply
	// is seeded far from z, then coverage completes: the stop reads the last
	// fold's residuals, not the seeded state.
	script = folds(nil, 400, same)
	script = append(script, latchEvent{op: "seed", user: 1, x: far}, latchEvent{op: "drop", user: 2},
		latchEvent{op: "cover"})
	if stop := latchStop(t, script, users, eps); stop != len(script)-1 {
		t.Fatalf("seed then cover: stop at %d, want %d", stop, len(script)-1)
	}

	// The devices disagree: z settles, so the dual passes, but the primal
	// stays at the spread. Never stops, seeds and drops notwithstanding.
	script = folds([]latchEvent{{op: "cover"}}, 300, apart)
	script = append(script, latchEvent{op: "seed", user: 0, x: c}, latchEvent{op: "uncover"},
		latchEvent{op: "cover"})
	script = folds(script, 100, apart)
	if stop := latchStop(t, script, users, eps); stop != -1 {
		t.Fatalf("spread fleet stopped at %d", stop)
	}
}
