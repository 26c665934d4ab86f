package protocol

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plos/internal/obs"
	"plos/internal/obs/health"
	"plos/internal/transport"
)

// quietHealthCfg is the health config these integration tests attach to the
// aggregator: shard-lifecycle and quorum rules live, objective rules
// disabled. The aggregator's cccp-iteration record fires before the descent
// check and degraded (stale-carry) rounds legitimately record ascending
// objectives, so a live ascent rule would make the /healthz trajectory
// depend on fault timing instead of shard lifecycle alone.
func quietHealthCfg(shards, quorum int) health.Config {
	return health.Config{
		Shards:       shards,
		ShardQuorum:  quorum,
		StallEpsilon: 1e18,
		StallRounds:  1 << 30,
	}
}

// getHealthz issues one GET against the engine's /healthz server and
// returns the status code and body.
func getHealthz(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// pollHealthz polls until the predicate accepts a (status, body) pair or the
// deadline passes; it returns the last observation either way.
func pollHealthz(t *testing.T, url string, ok func(code int, body string) bool) (int, string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := getHealthz(t, url)
		if ok(code, body) || time.Now().After(deadline) {
			return code, body
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAggHealthzKillRestoreRecovers is the acceptance gate of the health
// plane: the same seeded kill/restore choreography as
// TestShardedKillRestoreRejoins, with a health engine attached to the
// aggregator and /healthz polled live. The endpoint must report 200 ok
// before the fault, flip to 503 naming the dead shard and its detach cause
// while the degraded quorum carries stale partials, and return to 200 after
// the checkpoint rejoin — without moving a bit of the final model.
func TestAggHealthzKillRestoreRecovers(t *testing.T) {
	users, _ := makeUsers(41, 6)
	partition := [][]int{{0, 1, 2}, {3, 4, 5}}
	ckPath := t.TempDir() + "/shard0.ckpt"

	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(nil, 256)
	reg.SetFlightRecorder(fr)
	eng := health.New(reg, quietHealthCfg(2, 1))
	srv := httptest.NewServer(eng.HealthzHandler())
	defer srv.Close()
	rejoins := make(chan Rejoin, 1)

	sc := sweepConfig()
	sc.Core.MaxCCCPIter = 6
	sc.Dist.MaxADMMIter = 1
	sc.Core.CCCPTol = 1e-12
	cfg := AggConfig{Core: sc.Core, Dist: sc.Dist,
		FT: AggFTConfig{ShardQuorum: 1, MaxStale: 100, Rejoin: rejoins}}
	cfg.Core.Obs = reg

	if code, body := getHealthz(t, srv.URL); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthz before the run = %d %q, want 200 ok", code, body)
	}

	crashed := make(chan struct{})
	hold := make(chan struct{})
	var crashOnce sync.Once
	dials, wait := loopClients(users)

	// Same fault plan as TestShardedKillRestoreRejoins: shard 0's agg link
	// dies on its round-1 consensus sum, shard 1 parks that round until the
	// rejoin is queued so the run cannot end while shard 0 is down.
	agg0, sh0 := newLink()
	link0 := transport.FailAfter(sh0, 7)
	devs0 := make([]transport.Conn, len(partition[0]))
	for j, u := range partition[0] {
		scn, cc := newLink()
		devs0[j] = &crashConn{Conn: scn, once: &crashOnce, crashed: crashed}
		dials[u] <- cc
	}
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
	var run2 *ServerResult
	var aggRes *AggResult
	wg.Add(3)
	go func() {
		defer wg.Done()
		_, run1Err = RunShard(link0, devs0, ShardConfig{Shard: 0, FT: FTConfig{CheckpointPath: ckPath}})
	}()
	go func() {
		defer wg.Done()
		_, shard1Err = RunShard(link1, devs1, ShardConfig{Shard: 1})
	}()
	go func() {
		defer wg.Done()
		aggRes, aggErr = RunAggregator([]transport.Conn{agg0, agg1}, cfg)
	}()

	// The shard is dead; /healthz must go critical-free but non-ok, naming
	// the shard and the detach cause, before we even begin the restore.
	<-crashed
	code, body := pollHealthz(t, srv.URL, func(code int, body string) bool {
		return code == http.StatusServiceUnavailable
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after the kill = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "shard:0") || !strings.Contains(body, "detached") {
		t.Errorf("degraded healthz body must name the dead shard and cause, got %q", body)
	}

	ck, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatalf("load checkpoint after the crash: %v", err)
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
	_, clientErrs := wait()

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
	for u, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", u, e)
		}
	}

	// The rejoin landed and the run finished: the fleet is healthy again.
	if code, body := getHealthz(t, srv.URL); code != http.StatusOK {
		t.Fatalf("healthz after the rejoin = %d %q, want 200", code, body)
	}
	if got := eng.HealthCode(); got != 0 {
		t.Errorf("final health code = %d (%+v), want 0", got, eng.Fleet())
	}
	if st, ok := eng.Component("shard:0"); !ok || st.State != health.StateOK {
		t.Errorf("shard:0 component after the rejoin = %+v, want ok", st)
	}
	if !tailHas(fr, "health-transition") {
		t.Error("no health-transition flight records from the kill/restore")
	}
	if got := reg.Gauge(obs.MetricHealthState, "").Value(); got != 0 {
		t.Errorf("%s gauge = %g after recovery, want 0", obs.MetricHealthState, got)
	}
	// The transition log pins the whole trajectory: shard:0 went down and
	// came back, and the fleet followed it.
	snap := eng.Snapshot()
	var sawDown, sawBack bool
	for _, tr := range snap.Transitions {
		if tr.Component == "shard:0" && tr.To == "degraded" {
			sawDown = true
		}
		if tr.Component == "shard:0" && sawDown && tr.To == "ok" {
			sawBack = true
		}
	}
	if !sawDown || !sawBack {
		t.Errorf("transition log missing the shard:0 down/up pair: %+v", snap.Transitions)
	}

	// Health observation stayed passive: same model as the engine-less run
	// of the same choreography (pinned by TestShardedKillRestoreRejoins's
	// bitwise asserts; here we check the plane still agrees with itself).
	if !vecIdentical(run2.Model.W0, aggRes.W0) {
		t.Error("final w0 differs across the plane with the health engine attached")
	}
}

// TestShardHealthPiggybackReportsRemoteState: a shard running its own health
// engine stamps its rollup on every consensus sum (the free Labeled field),
// and the aggregator folds it into its fleet tree as shard:<id>. A shard
// with no engine stamps 0 and must not appear.
func TestShardHealthPiggybackReportsRemoteState(t *testing.T) {
	users, _ := makeUsers(37, 6)
	partition := [][]int{{0, 1, 2}, {3, 4, 5}}

	sc := sweepConfig()
	clean := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, nil, nil)
	if clean.aggErr != nil {
		t.Fatalf("clean aggregator: %v", clean.aggErr)
	}

	aggReg := obs.NewRegistry()
	aggEng := health.New(aggReg, quietHealthCfg(2, 2))
	shardReg := obs.NewRegistry()
	shardEng := health.New(shardReg, quietHealthCfg(0, 0))
	// Degrade the shard-local engine before the run: every stamp it
	// piggybacks must carry code 1 (degraded).
	shardEng.ReportRemote("devices", 1, "injected-degraded")

	sc2 := sweepConfig()
	cfg := AggConfig{Core: sc2.Core, Dist: sc2.Dist}
	cfg.Core.Obs = aggReg
	out := runSharded(t, users, partition, cfg, func(s int) ShardConfig {
		scfg := ShardConfig{Shard: s}
		if s == 0 {
			scfg.Core.Obs = shardReg
		}
		return scfg
	}, nil, nil)
	if out.aggErr != nil {
		t.Fatalf("aggregator: %v", out.aggErr)
	}
	for s, e := range out.shardErrs {
		if e != nil {
			t.Fatalf("shard %d: %v", s, e)
		}
	}

	st, ok := aggEng.Component("shard:0")
	if !ok {
		t.Fatal("aggregator engine has no shard:0 component; piggyback stamp never folded")
	}
	if st.State != health.StateDegraded || !strings.Contains(st.Cause, "shard-reported") {
		t.Errorf("shard:0 = %+v, want degraded via shard-reported", st)
	}
	if _, ok := aggEng.Component("shard:1"); ok {
		t.Error("engine-less shard 1 stamps 0 and must not appear in the fleet tree")
	}
	if got := aggEng.HealthCode(); got != 1 {
		t.Errorf("fleet code = %d, want 1 (degraded shard report)", got)
	}

	// The stamp rides a fixed-width field the codec always encodes, so the
	// run is still bit-identical to the unstamped one.
	if !vecIdentical(out.agg.W0, clean.agg.W0) {
		t.Error("global model differs with health stamps on the wire")
	}
	if !floatsIdentical(out.agg.Info.ObjectiveHistory, clean.agg.Info.ObjectiveHistory) {
		t.Error("objective history differs with health stamps on the wire")
	}
}

// TestHealthEndpointsScrapeHammer is the race soak of the ops surfaces:
// a chaos-seeded sharded run with the health engine ticking at 1ms while
// scraper goroutines hammer /metrics, /debug/vars and /debug/health the
// whole time. The race detector (ci runs this with -race) is the real
// assertion; the test itself checks the run survived, faults were injected,
// every scrape succeeded, and the model still matches the clean run.
func TestHealthEndpointsScrapeHammer(t *testing.T) {
	users, _ := makeUsers(37, 6)
	partition := [][]int{{0, 1, 2}, {3, 4, 5}}

	sc := sweepConfig()
	clean := runSharded(t, users, partition, AggConfig{Core: sc.Core, Dist: sc.Dist}, nil, nil, nil)
	if clean.aggErr != nil {
		t.Fatalf("clean aggregator: %v", clean.aggErr)
	}

	reg := obs.NewRegistry()
	reg.SetFlightRecorder(obs.NewFlightRecorder(nil, 256))
	eng := health.New(reg, quietHealthCfg(2, 1))
	eng.Start(time.Millisecond)
	defer eng.Stop()

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		_ = reg.WriteJSON(w)
	})
	mux.Handle("/debug/health", eng.TreeHandler())
	mux.Handle("/healthz", eng.HealthzHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	done := make(chan struct{})
	var scrapes, scrapeErrs atomic.Int64
	var hammer sync.WaitGroup
	for g := 0; g < 4; g++ {
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			paths := []string{"/metrics", "/debug/vars", "/debug/health", "/healthz"}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					scrapeErrs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				// /healthz legitimately serves 503 mid-chaos; anything else
				// must be 200.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					scrapeErrs.Add(1)
				}
				scrapes.Add(1)
			}
		}()
	}

	// Same content-preserving chaos plan as the bit-identity soak, with the
	// observed registry wired into the aggregator core.
	policy := func(seed int64) transport.RetryPolicy {
		return transport.RetryPolicy{MaxAttempts: 10, Seed: seed, Sleep: ftNoSleep,
			Counter: obs.MetricAggLinkRetries}
	}
	wrapAgg := func(s int, aggSide, shardSide transport.Conn) (transport.Conn, transport.Conn) {
		chaos := transport.Chaos(shardSide, transport.ChaosConfig{
			Seed:        300 + int64(s),
			DropProb:    0.05,
			DupProb:     0.05,
			CorruptProb: 0.03,
			DelayProb:   0.10,
			MaxDelay:    time.Millisecond,
			FlapProb:    0.01,
			Sleep:       ftNoSleep,
		}, reg)
		return transport.Retry(aggSide, policy(1300+int64(s)), reg),
			transport.Retry(chaos, policy(int64(s)), reg)
	}
	sc2 := sweepConfig()
	cfg := AggConfig{Core: sc2.Core, Dist: sc2.Dist}
	cfg.Core.Obs = reg
	out := runShardedLinks(t, users, partition, cfg, nil, nil, nil, wrapAgg)

	close(done)
	hammer.Wait()

	if out.aggErr != nil {
		t.Fatalf("chaos aggregator: %v", out.aggErr)
	}
	for s, e := range out.shardErrs {
		if e != nil {
			t.Fatalf("chaos shard %d: %v", s, e)
		}
	}
	if reg.CounterValue(obs.MetricChaosFaults) == 0 {
		t.Fatal("chaos injected no faults; the soak proved nothing")
	}
	if n := scrapes.Load(); n == 0 {
		t.Fatal("scrapers never completed a request")
	}
	if n := scrapeErrs.Load(); n != 0 {
		t.Errorf("%d scrapes failed (of %d)", n, scrapes.Load())
	}
	if !vecIdentical(out.agg.W0, clean.agg.W0) {
		t.Error("global model differs with scrapers attached")
	}
}
