package plos

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"plos/internal/obs"
	"plos/internal/obs/health"
)

// TestObserverBitIdentical is the acceptance gate of the observability
// layer: attaching an observer must not move a single bit of the trained
// model — same contract as WithWorkers determinism.
func TestObserverBitIdentical(t *testing.T) {
	users := detUsers(4)
	plainC, err := Train(users, WithSeed(4))
	if err != nil {
		t.Fatalf("Train plain: %v", err)
	}
	plainD, err := TrainDistributed(users, WithSeed(4))
	if err != nil {
		t.Fatalf("TrainDistributed plain: %v", err)
	}
	ob := NewObserver()
	obsC, err := Train(users, WithSeed(4), WithObserver(ob))
	if err != nil {
		t.Fatalf("Train observed: %v", err)
	}
	obsD, err := TrainDistributed(users, WithSeed(4), WithObserver(ob))
	if err != nil {
		t.Fatalf("TrainDistributed observed: %v", err)
	}
	compareModels(t, "Train observer on/off", plainC, obsC)
	compareModels(t, "TrainDistributed observer on/off", plainD, obsD)

	// The health engine consumes every flight record the runs emit; it must
	// stay just as passive as the bare observer.
	hob := NewObserver(WithHealth(health.Config{}))
	healthC, err := Train(users, WithSeed(4), WithObserver(hob))
	if err != nil {
		t.Fatalf("Train health-observed: %v", err)
	}
	healthD, err := TrainDistributed(users, WithSeed(4), WithObserver(hob))
	if err != nil {
		t.Fatalf("TrainDistributed health-observed: %v", err)
	}
	compareModels(t, "Train health engine on/off", plainC, healthC)
	compareModels(t, "TrainDistributed health engine on/off", plainD, healthD)
	if hob.Health() == nil {
		t.Fatal("WithHealth must attach an engine")
	}
	if hob.Health().HealthCode() != 0 {
		t.Fatalf("healthy deterministic run reports code %d, want 0 (%+v)",
			hob.Health().HealthCode(), hob.Health().Fleet())
	}
}

func TestObserverCollectsTrainingMetrics(t *testing.T) {
	users := detUsers(5)
	ob := NewObserver()
	if _, err := Train(users, WithSeed(5), WithObserver(ob)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	for _, name := range []string{
		obs.MetricTrainRuns, obs.MetricCCCPIterations,
		obs.MetricCutRounds, obs.MetricQPSolves, obs.MetricQPIterations,
	} {
		if ob.CounterValue(name) == 0 {
			t.Errorf("counter %s not incremented by centralized training", name)
		}
	}
	if _, err := TrainDistributed(users, WithSeed(5), WithObserver(ob)); err != nil {
		t.Fatalf("TrainDistributed: %v", err)
	}
	if ob.CounterValue(obs.MetricADMMRounds) == 0 {
		t.Error("admm_rounds_total not incremented by distributed training")
	}
	if ob.CounterValue(obs.MetricParallelBatches) == 0 {
		t.Error("parallel_batches_total not incremented (pool hook not installed?)")
	}

	// The Prometheus surface serves all of it.
	rec := httptest.NewRecorder()
	ob.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE cccp_iterations_total counter",
		"# TYPE qp_solve_seconds summary",
		"admm_primal_residual",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// JSON snapshot round-trips, durations included.
	var buf strings.Builder
	if err := ob.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if snap[obs.MetricQPSolves].(float64) == 0 {
		t.Error("JSON snapshot lost qp_solves_total")
	}
	for _, name := range []string{obs.MetricQPSolveSeconds, obs.MetricGramBuildSeconds, obs.MetricADMMRoundSeconds} {
		if h, _ := snap[name].(map[string]any); h["count"] == nil || h["count"].(float64) == 0 {
			t.Errorf("JSON snapshot has no %s observations", name)
		}
	}
}

// TestStatsCarriesADMMDiagnostics is the regression test for the dropped
// ADMM diagnostics: round counts and final residuals must survive into the
// public Stats, and slice fields must be copies.
func TestStatsCarriesADMMDiagnostics(t *testing.T) {
	users := detUsers(6)
	m, err := TrainDistributed(users, WithSeed(6))
	if err != nil {
		t.Fatalf("TrainDistributed: %v", err)
	}
	st := m.Stats()
	if st.ADMMIterations == 0 {
		t.Error("ADMMIterations dropped")
	}
	if st.ADMMPrimalResidual == 0 && st.ADMMDualResidual == 0 {
		t.Error("final ADMM residuals dropped (both exactly zero)")
	}
	if st.CutRounds == 0 {
		t.Error("CutRounds dropped")
	}
	if len(st.ObjectiveHistory) != st.CCCPIterations {
		t.Errorf("ObjectiveHistory has %d entries for %d CCCP iterations",
			len(st.ObjectiveHistory), st.CCCPIterations)
	}
	st.ObjectiveHistory[0] = -12345
	if m.Stats().ObjectiveHistory[0] == -12345 {
		t.Error("Stats returned an aliased slice, not a copy")
	}

	mc, err := Train(users, WithSeed(6))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if stc := mc.Stats(); stc.QPIterations == 0 || stc.CutRounds == 0 {
		t.Errorf("centralized Stats missing solver counts: %+v", stc)
	}
}

// TestServeJoinObserved checks the wire-level instrumentation: a loopback
// distributed run must feed the transport counters.
func TestServeJoinObserved(t *testing.T) {
	users := makeUsers(9, 3, 10, 0.1, func(i int) int {
		if i == 2 {
			return 0
		}
		return 8
	})
	ob := NewObserver()
	addrCh := make(chan string, 1)
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, serveErr = Serve("127.0.0.1:0", len(users),
			func(addr string) { addrCh <- addr }, WithSeed(9), WithObserver(ob))
	}()
	addr := <-addrCh
	var dwg sync.WaitGroup
	deviceErrs := make([]error, len(users))
	for i := range users {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			_, deviceErrs[i] = Join(addr, users[i], WithSeed(int64(i)))
		}(i)
	}
	dwg.Wait()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("Serve: %v", serveErr)
	}
	for i, err := range deviceErrs {
		if err != nil {
			t.Fatalf("Join %d: %v", i, err)
		}
	}
	if ob.CounterValue(obs.MetricMessagesSent) == 0 ||
		ob.CounterValue(obs.MetricBytesSent) == 0 ||
		ob.CounterValue(obs.MetricMessagesReceived) == 0 ||
		ob.CounterValue(obs.MetricBytesReceived) == 0 {
		t.Errorf("transport counters empty: sent=%d/%dB recv=%d/%dB",
			ob.CounterValue(obs.MetricMessagesSent), ob.CounterValue(obs.MetricBytesSent),
			ob.CounterValue(obs.MetricMessagesReceived), ob.CounterValue(obs.MetricBytesReceived))
	}
}

func TestNilObserverOption(t *testing.T) {
	users := detUsers(8)
	if _, err := Train(users, WithSeed(8), WithObserver(nil)); err != nil {
		t.Fatalf("Train with nil observer: %v", err)
	}
	var ob *Observer
	if ob.CounterValue(obs.MetricTrainRuns) != 0 {
		t.Error("nil observer should read zero")
	}
	if err := ob.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil observer WritePrometheus: %v", err)
	}
	ob.PublishExpvar() // must not panic
}
