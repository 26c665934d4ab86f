package plos

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestObserverFlightBitIdentical extends the observer acceptance gate to the
// flight recorder: recording the full convergence trajectory (and the
// telemetry it implies) must not move a single bit of the trained model.
func TestObserverFlightBitIdentical(t *testing.T) {
	users := detUsers(14)
	plainC, err := Train(users, WithSeed(14))
	if err != nil {
		t.Fatalf("Train plain: %v", err)
	}
	plainD, err := TrainDistributed(users, WithSeed(14))
	if err != nil {
		t.Fatalf("TrainDistributed plain: %v", err)
	}
	var flight strings.Builder
	ob := NewObserver(WithFlightRecorder(&flight))
	obsC, err := Train(users, WithSeed(14), WithObserver(ob))
	if err != nil {
		t.Fatalf("Train recorded: %v", err)
	}
	obsD, err := TrainDistributed(users, WithSeed(14), WithObserver(ob))
	if err != nil {
		t.Fatalf("TrainDistributed recorded: %v", err)
	}
	compareModels(t, "Train flight recorder on/off", plainC, obsC)
	compareModels(t, "TrainDistributed flight recorder on/off", plainD, obsD)
	// The kernelized trainer is Train on a feature map, so it records a
	// centralized run — and stays just as passive.
	plainK, err := TrainKernel(users, RBFKernel(0.5), WithSeed(14))
	if err != nil {
		t.Fatalf("TrainKernel plain: %v", err)
	}
	obsK, err := TrainKernel(users, RBFKernel(0.5), WithSeed(14), WithObserver(ob))
	if err != nil {
		t.Fatalf("TrainKernel recorded: %v", err)
	}
	for u, user := range users {
		for _, x := range user.Features {
			if a, b := plainK.Score(u, x), obsK.Score(u, x); a != b {
				t.Fatalf("TrainKernel flight recorder on/off: user %d scores %v vs %v", u, a, b)
			}
		}
	}

	out := flight.String()
	for _, want := range []string{
		`"rec":"run-start","trainer":"centralized"`,
		`"rec":"run-start","trainer":"distributed"`,
		`"rec":"cccp-iteration"`,
		`"rec":"cut-round"`,
		`"rec":"admm-round"`,
		`"rec":"run-end"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("flight stream missing %s", want)
		}
	}
	if err := ob.FlightErr(); err != nil {
		t.Errorf("FlightErr: %v", err)
	}
}

// runServeJoin trains over loopback TCP and returns the global hyperplane
// plus each device's personalized one.
func runServeJoin(t *testing.T, users []User, serveOpts ...Option) ([]float64, [][]float64) {
	t.Helper()
	addrCh := make(chan string, 1)
	var res *ServeResult
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, serveErr = Serve("127.0.0.1:0", len(users),
			func(addr string) { addrCh <- addr },
			append([]Option{WithSeed(21)}, serveOpts...)...)
	}()
	addr := <-addrCh
	personals := make([][]float64, len(users))
	deviceErrs := make([]error, len(users))
	var dwg sync.WaitGroup
	for i := range users {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			dm, err := Join(addr, users[i], WithSeed(int64(i)))
			if err == nil {
				personals[i] = dm.Personalized()
			}
			deviceErrs[i] = err
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
	return res.Model.Global(), personals
}

// TestServeJoinTelemetry: over real loopback TCP, a flight-recording
// observer on Serve must request the telemetry piggyback and merge every
// device's replies into the trace. No cross-run model comparison here: TCP
// accept order assigns user slots, so two Serve runs permute federated-init
// and consensus summation at ULP level regardless of telemetry — the
// bit-identity half of this contract lives in the deterministic pipes
// harness (protocol.TestTelemetryBitIdentical).
func TestServeJoinTelemetry(t *testing.T) {
	users := makeUsers(21, 3, 10, 0.1, func(i int) int {
		if i == 1 {
			return 0
		}
		return 8
	})
	var flight strings.Builder
	ob := NewObserver(WithFlightRecorder(&flight))
	w0, personals := runServeJoin(t, users, WithObserver(ob))
	if len(w0) == 0 {
		t.Fatal("empty global hyperplane")
	}
	for u, w := range personals {
		if len(w) != len(w0) {
			t.Fatalf("device %d personalized dim %d, want %d", u, len(w), len(w0))
		}
	}
	out := flight.String()
	if !strings.Contains(out, `"rec":"device-round"`) {
		t.Error("no device-round records: telemetry was not requested or merged")
	}
	if !strings.Contains(out, `"rec":"run-start","trainer":"server"`) {
		t.Error("no server run-start record")
	}
	for u := 0; u < len(users); u++ {
		if !strings.Contains(out, `"user":`+string(rune('0'+u))+`,"arrive_ns"`) {
			t.Errorf("no merged telemetry for device %d", u)
		}
	}
	if err := ob.FlightErr(); err != nil {
		t.Errorf("FlightErr: %v", err)
	}
}

// TestConcurrentExportDuringTraining is the race gate for the tracing layer:
// metrics and flight records are emitted by a live distributed run
// while every export surface is scraped concurrently. Run under -race.
func TestConcurrentExportDuringTraining(t *testing.T) {
	users := detUsers(15)
	ob := NewObserver(WithFlightRecorder(nil))
	done := make(chan struct{})
	var stop atomic.Bool
	var swg sync.WaitGroup
	for i := 0; i < 3; i++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for !stop.Load() {
				_ = ob.WritePrometheus(io.Discard)
				_ = ob.WriteJSON(io.Discard)
				snap := ob.TraceSnapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("TraceSnapshot not marshalable: %v", err)
					return
				}
			}
		}()
	}
	go func() {
		defer close(done)
		if _, err := TrainDistributed(users, WithSeed(15), WithObserver(ob)); err != nil {
			t.Errorf("TrainDistributed: %v", err)
		}
		if _, err := Train(users, WithSeed(15), WithObserver(ob)); err != nil {
			t.Errorf("Train: %v", err)
		}
	}()
	<-done
	stop.Store(true)
	swg.Wait()
}

// TestTraceSnapshotSurface: the /debug/trace payload carries the flight
// recorder's count and tail.
func TestTraceSnapshotSurface(t *testing.T) {
	users := detUsers(16)
	ob := NewObserver(WithFlightRecorder(nil))
	if _, err := Train(users, WithSeed(16), WithObserver(ob)); err != nil {
		t.Fatalf("Train: %v", err)
	}
	snap := ob.TraceSnapshot()
	if snap["flight_recorded"].(int64) == 0 {
		t.Error("tail-only recorder saw no records")
	}
	tail, ok := snap["flight_tail"].([]json.RawMessage)
	if !ok || len(tail) == 0 {
		t.Fatal("flight_tail missing")
	}

	rec := httptest.NewRecorder()
	ob.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q", ct)
	}
	var decoded map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("/debug/trace not JSON: %v", err)
	}
	if _, ok := decoded["flight_tail"]; !ok {
		t.Error("/debug/trace missing flight_tail")
	}

	// Nil observer: every trace surface stays safe.
	var nilOb *Observer
	if nilOb.TraceSnapshot() == nil {
		t.Error("nil observer TraceSnapshot returned nil map")
	}
	if err := nilOb.FlightErr(); err != nil {
		t.Errorf("nil observer FlightErr: %v", err)
	}
}
