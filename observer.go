package plos

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plos/internal/obs"
	"plos/internal/obs/health"
	"plos/internal/parallel"
	"plos/internal/transport"
)

// processStart anchors the process_uptime_seconds gauge: package
// initialization is the closest portable stand-in for process start.
var processStart = time.Now()

// Observer collects training metrics and, with WithFlightRecorder, the
// flight-record stream. Create one with NewObserver, attach it to any trainer
// with WithObserver, and read it out through Handler (Prometheus text),
// Snapshot/WriteJSON (JSON), or TraceHandler (the flight tail). Events go to
// the flight stream and durations to histograms; nothing is recorded twice.
// One observer may watch any number of training runs, concurrently or in
// sequence; counters accumulate across them.
//
// Observation is strictly passive: a trained model is bit-identical with or
// without an observer attached (the determinism contract of WithWorkers is
// unaffected), and the instrumentation cost is a handful of atomic adds per
// solver phase — see docs/OBSERVABILITY.md for the full metric catalog.
type Observer struct {
	reg    *obs.Registry
	health *health.Engine
}

// ObserverOption tweaks NewObserver. The zero set of options reproduces the
// historical observer exactly.
type ObserverOption func(*observerConfig)

type observerConfig struct {
	flight    bool
	flightW   io.Writer
	health    bool
	healthCfg health.Config
}

// WithFlightRecorder attaches a convergence flight recorder: every trainer
// run under this observer appends typed JSONL records (CCCP iterations,
// cutting-plane rounds, ADMM residuals, device telemetry, drop causes) to w,
// and the wire-protocol server requests the device telemetry piggyback.
// A nil w records to the in-memory tail only (served by TraceHandler).
// Analyze the stream with cmd/plos-trace.
func WithFlightRecorder(w io.Writer) ObserverOption {
	return func(c *observerConfig) {
		c.flight = true
		c.flightW = w
	}
}

// WithHealth attaches a live health engine (internal/obs/health): the
// observer's flight-record stream and counters drive a rule-driven component
// tree served on /healthz, /debug/health and /statusz (plos-server mounts
// all three when -metrics-addr is set). Health needs the record stream, so
// this option implies a tail-only flight recorder when none was configured.
// The engine is passive — a run observed with health attached trains a
// bit-identical model.
func WithHealth(cfg health.Config) ObserverOption {
	return func(c *observerConfig) {
		c.health = true
		c.healthCfg = cfg
	}
}

// NewObserver creates an observer with every documented metric
// pre-registered. It also becomes the process-global observer of the
// internal worker pool (queue depth, per-worker busy time) — the pool is
// shared by all trainers in the process, so the most recently created
// observer owns its metrics.
func NewObserver(opts ...ObserverOption) *Observer {
	var c observerConfig
	for _, opt := range opts {
		opt(&c)
	}
	r := obs.NewRegistry()
	if c.flight || c.health {
		r.SetFlightRecorder(obs.NewFlightRecorder(c.flightW, obs.DefaultFlightTail))
	}
	r.GaugeFunc(obs.MetricProcessUptimeSeconds,
		"Seconds since this process initialized the plos package (registered by NewObserver).",
		func() float64 { return time.Since(processStart).Seconds() })
	r.GaugeFunc(obs.MetricBuildInfo, fmt.Sprintf(
		"Constant 1; built with %s, wire codec v%d (v%d compressed), sharded serving plane compiled in.",
		runtime.Version(), transport.CodecVersionBase, transport.CodecVersionCompressed),
		func() float64 { return 1 })
	ob := &Observer{reg: r}
	if c.health {
		ob.health = health.New(r, c.healthCfg)
	}
	parallel.SetMetrics(r.PoolMetrics())
	return ob
}

// Health returns the attached health engine (nil without WithHealth, or on
// a nil observer).
func (ob *Observer) Health() *health.Engine {
	if ob == nil {
		return nil
	}
	return ob.health
}

// WithObserver attaches ob to the training run. A nil observer is valid and
// equivalent to not passing the option.
func WithObserver(ob *Observer) Option {
	return func(o *options) {
		if ob != nil {
			o.core.Obs = ob.reg
		}
	}
}

// registry is the internal accessor used by Serve and the cmd/ binaries.
// It is nil-safe so call sites can thread a possibly-nil observer through.
func (ob *Observer) registry() *obs.Registry {
	if ob == nil {
		return nil
	}
	return ob.reg
}

// WritePrometheus writes all metrics in the Prometheus text exposition
// format (histograms appear as summaries with p50/p95/max companions).
func (ob *Observer) WritePrometheus(w io.Writer) error {
	return ob.registry().WritePrometheus(w)
}

// Handler returns an http.Handler serving the Prometheus text exposition —
// mount it on /metrics.
func (ob *Observer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = ob.WritePrometheus(w)
	})
}

// Snapshot returns all metric values keyed by name; histogram entries are
// objects carrying count/sum/quantiles. The result marshals cleanly to JSON.
func (ob *Observer) Snapshot() map[string]any {
	return ob.registry().Snapshot()
}

// WriteJSON writes the Snapshot as one indented JSON object — the payload
// behind plos-bench -metrics-json.
func (ob *Observer) WriteJSON(w io.Writer) error {
	return ob.registry().WriteJSON(w)
}

// FlightErr returns the first write error of the attached flight recorder
// (nil with no recorder, or when every write succeeded). Check it after a
// run that streamed records to a file.
func (ob *Observer) FlightErr() error {
	return ob.registry().Flight().Err()
}

// TraceSnapshot summarizes the live flight recorder: its record count plus
// its retained tail (decoded records, oldest first); empty with no recorder
// attached. The result marshals cleanly to JSON; it is the payload behind
// TraceHandler.
func (ob *Observer) TraceSnapshot() map[string]any {
	out := map[string]any{}
	if fr := ob.registry().Flight(); fr != nil {
		tail := fr.Tail()
		recs := make([]json.RawMessage, len(tail))
		for i, line := range tail {
			recs[i] = json.RawMessage(line)
		}
		out["flight_recorded"] = fr.Recorded()
		out["flight_tail"] = recs
	}
	return out
}

// TraceHandler returns an http.Handler serving TraceSnapshot as indented
// JSON — mount it on /debug/trace (plos-server does, next to /metrics).
func (ob *Observer) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ob.TraceSnapshot())
	})
}

// CounterValue reads one counter by its documented name (zero when the
// counter has not been touched).
func (ob *Observer) CounterValue(name string) int64 {
	return ob.registry().CounterValue(name)
}

// GaugeFunc registers a derived gauge evaluated at scrape time — e.g. an
// energy model applied to the traffic counters.
func (ob *Observer) GaugeFunc(name, help string, fn func() float64) {
	ob.registry().GaugeFunc(name, help, fn)
}

// expvar.Publish panics on duplicate names, so the "plos" var is published
// once per process and reads whichever observer most recently asked for it.
var (
	expvarOnce   sync.Once
	expvarTarget atomic.Pointer[obs.Registry]
)

// PublishExpvar exposes the observer's snapshot as the expvar variable
// "plos" (served on /debug/vars by any mux with expvar.Handler mounted).
// Publishing again from a different observer redirects the variable to it.
func (ob *Observer) PublishExpvar() {
	if ob == nil {
		return
	}
	expvarTarget.Store(ob.reg)
	expvarOnce.Do(func() {
		expvar.Publish("plos", expvar.Func(func() any {
			return expvarTarget.Load().Snapshot()
		}))
	})
}
