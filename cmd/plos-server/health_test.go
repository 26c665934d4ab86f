package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"plos"
	"plos/internal/obs/health"
)

// get fetches one ops endpoint and returns status and body.
func get(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// TestHealthEndpointsWiring mounts the ops mux around a health-attached
// observer and drives the fleet state through the three surfaces: /healthz
// flips 200 -> 503 -> 200 with the engine, /debug/health serves the JSON
// tree, /statusz the human page, and /metrics carries the new gauges.
func TestHealthEndpointsWiring(t *testing.T) {
	ob := plos.NewObserver(plos.WithFlightRecorder(nil), plos.WithHealth(health.Config{}))
	addr, stop, err := startMetrics("127.0.0.1:0", ob)
	if err != nil {
		t.Fatalf("startMetrics: %v", err)
	}
	defer stop()

	if code, body := get(t, addr, "/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, body := get(t, addr, "/debug/health")
	if code != http.StatusOK {
		t.Fatalf("/debug/health = %d", code)
	}
	var snap health.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/health is not JSON: %v\n%s", err, body)
	}
	if snap.State != "ok" {
		t.Errorf("/debug/health state = %q, want ok", snap.State)
	}

	if code, body := get(t, addr, "/statusz"); code != http.StatusOK ||
		!strings.Contains(body, "plos health: ok") || !strings.Contains(body, "uptime:") {
		t.Errorf("/statusz = %d %q", code, body)
	}

	_, metrics := get(t, addr, "/metrics")
	for _, want := range []string{
		"health_state 0",
		"obs_flight_write_errors 0",
		"process_uptime_seconds",
		"plos_build_info",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "go1.") {
		t.Error("plos_build_info help must carry the toolchain version")
	}

	// Degrade the fleet through the engine and watch the gate flip.
	ob.Health().ReportRemote("shard:3", 1, "synthetic fault")
	code, body = get(t, addr, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while degraded = %d %q, want 503", code, body)
	}
	if !strings.Contains(body, "shard:3") || !strings.Contains(body, "synthetic fault") {
		t.Errorf("degraded /healthz must name component and cause, got %q", body)
	}
	ob.Health().ReportRemote("shard:3", 0, "")
	if code, _ := get(t, addr, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after recovery = %d, want 200", code)
	}
}

// TestRunMountsHealthPlane drives the real flag path: a full distributed run
// with -metrics-addr must mount the health surfaces on the ops endpoint and
// report a healthy fleet while training is live.
func TestRunMountsHealthPlane(t *testing.T) {
	const devices = 2
	var wg *sync.WaitGroup
	type probe struct {
		healthz int
		statusz string
		treeOK  bool
	}
	probed := make(chan probe, 1)
	o := serverOptions{
		addr: "127.0.0.1:0", devices: devices,
		lambda: 100, cl: 1, cu: 0.2, rho: 1, epsAbs: 1e-3, seed: 1,
		metricsAddr: "127.0.0.1:0",
		onListen:    func(bound string) { wg = joinClients(t, bound, devices, 40) },
		onMetrics: func(bound string) {
			var p probe
			p.healthz, _ = get(t, bound, "/healthz")
			_, p.statusz = get(t, bound, "/statusz")
			_, tree := get(t, bound, "/debug/health")
			var snap health.Snapshot
			p.treeOK = json.Unmarshal([]byte(tree), &snap) == nil
			probed <- p
		},
	}
	if err := run(o); err != nil {
		t.Fatalf("server run: %v", err)
	}
	wg.Wait()
	p := <-probed
	if p.healthz != http.StatusOK {
		t.Errorf("/healthz during the run = %d, want 200", p.healthz)
	}
	if !strings.Contains(p.statusz, "plos health:") {
		t.Errorf("/statusz missing the header: %q", p.statusz)
	}
	if !p.treeOK {
		t.Error("/debug/health did not serve a parseable snapshot")
	}
}
