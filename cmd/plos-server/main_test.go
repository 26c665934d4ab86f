package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"plos"
)

// joinClients spawns the device side: n goroutines with synthetic two-cluster
// data that each plos.Join addr once. addr must already be listening: pass
// the bound address a server hands its onListen callback.
func joinClients(t *testing.T, addr string, n, samples int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(i)))
			u := plos.User{}
			for s := 0; s < samples; s++ {
				cls := 1.0
				if s%2 == 1 {
					cls = -1
				}
				u.Features = append(u.Features, []float64{
					cls*4 + r.NormFloat64(), cls*4 + r.NormFloat64(),
				})
				if s < samples/5 {
					u.Labels = append(u.Labels, cls)
				}
			}
			if _, err := plos.Join(addr, u, plos.WithSeed(int64(i))); err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	return &wg
}

func TestServerRunEndToEnd(t *testing.T) {
	const devices = 2
	var wg *sync.WaitGroup
	savePath := t.TempDir() + "/model.json"
	o := serverOptions{
		addr: "127.0.0.1:0", devices: devices,
		lambda: 100, cl: 1, cu: 0.2, rho: 1, epsAbs: 1e-3, seed: 1,
		save:        savePath,
		metricsAddr: "127.0.0.1:0", // exercise the full -metrics-addr plumbing
		onListen:    func(bound string) { wg = joinClients(t, bound, devices, 40) },
	}
	if err := run(o); err != nil {
		t.Fatalf("server run: %v", err)
	}
	wg.Wait()
	f, err := os.Open(savePath)
	if err != nil {
		t.Fatalf("saved model missing: %v", err)
	}
	defer f.Close()
	if _, err := plos.LoadModel(f); err != nil {
		t.Fatalf("saved model unreadable: %v", err)
	}
}

// promLine accepts Prometheus 0.0.4 text exposition sample lines.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// TestMetricsEndpointsDuringTraining is the observability acceptance test:
// while a distributed training run is in flight, the -metrics-addr endpoint
// must serve valid Prometheus text and a parseable CPU profile.
func TestMetricsEndpointsDuringTraining(t *testing.T) {
	ob := plos.NewObserver()
	metricsAddr, stop, err := startMetrics("127.0.0.1:0", ob)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	const devices = 3
	addrCh := make(chan string, 1)
	serveDone := make(chan error, 1)
	go func() {
		_, err := plos.Serve("127.0.0.1:0", devices,
			func(a string) { addrCh <- a },
			plos.WithSeed(2), plos.WithObserver(ob))
		serveDone <- err
	}()
	addr := <-addrCh

	// Start the 1-second CPU profile first so the training below lands
	// inside its sampling window.
	profDone := make(chan error, 1)
	go func() {
		profDone <- func() error {
			resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=1", metricsAddr))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				return fmt.Errorf("profile status %d: %s", resp.StatusCode, body)
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			// pprof profiles are gzipped protobuf; parseable means the gzip
			// layer opens and yields a non-empty payload.
			zr, err := gzip.NewReader(strings.NewReader(string(raw)))
			if err != nil {
				return fmt.Errorf("profile not gzip: %w", err)
			}
			pb, err := io.ReadAll(zr)
			if err != nil {
				return fmt.Errorf("profile gzip truncated: %w", err)
			}
			if len(pb) == 0 {
				return fmt.Errorf("profile payload empty")
			}
			return nil
		}()
	}()
	time.Sleep(50 * time.Millisecond) // let the profiler arm before training starts

	wg := joinClients(t, addr, devices, 60)

	// Scrape /metrics while the run is (likely) still in flight; the server
	// stays up either way because this test owns its lifecycle.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", metricsAddr))
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	validatePrometheus(t, string(body))

	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-profDone; err != nil {
		t.Fatalf("/debug/pprof/profile: %v", err)
	}

	// Post-training scrape must expose the trained-run counters, including
	// the derived energy gauge registered by startMetrics.
	resp, err = http.Get(fmt.Sprintf("http://%s/metrics", metricsAddr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	final := string(body)
	validatePrometheus(t, final)
	for _, want := range []string{
		"# TYPE train_runs_total counter",
		"transport_bytes_sent_total",
		"admm_rounds_total",
		"device_comm_energy_joules",
	} {
		if !strings.Contains(final, want) {
			t.Errorf("/metrics missing %q after training", want)
		}
	}

	// /debug/vars serves the expvar JSON with the published "plos" map.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/vars", metricsAddr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["plos"]; !ok {
		t.Error("/debug/vars missing the plos var")
	}
}

func validatePrometheus(t *testing.T, body string) {
	t.Helper()
	if !strings.Contains(body, "# TYPE ") {
		t.Error("exposition has no TYPE comments")
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
}
