package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is a
// valid no-op receiver, so call sites never branch on whether observation is
// enabled — the disabled path costs one nil check.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (no-op on a nil receiver).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v (no-op on a nil receiver).
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds delta to the gauge (no-op on a nil receiver).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, delta)
}

// Value returns the current value (zero on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// maxFloat atomically raises a float64 stored as uint64 bits to at least v.
func maxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Registry is a process-local metric namespace: counters, gauges, lazily
// evaluated gauge functions, streaming histograms, and the attached flight
// recorder and health sink.
// All accessors are get-or-create by name and safe for concurrent use; a nil
// *Registry is a valid no-op receiver throughout (every accessor returns a
// nil handle whose methods no-op), so instrumented code never branches on
// whether observation is enabled.
type Registry struct {
	mu       sync.Mutex
	order    []string // registration order, for stable export
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() float64
	hists    map[string]*Histogram
	help     map[string]string

	flight atomic.Pointer[flightSlot]
	health atomic.Pointer[healthSlot]
}

// NewRegistry creates a registry with every Catalog metric pre-registered
// (so an export surface always shows the full metric set, zeros included).
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
	for _, d := range Catalog {
		switch d.Kind {
		case KindCounter:
			r.Counter(d.Name, d.Help)
		case KindGauge:
			r.Gauge(d.Name, d.Help)
		case KindHistogram:
			r.Histogram(d.Name, d.Help)
		case KindGaugeFunc:
			// Gauge funcs need a closure from the caller (e.g. the energy
			// model); they appear once someone registers them.
		}
	}
	return r
}

// register records name/help on first sight and returns whether it was new.
// Caller holds r.mu.
func (r *Registry) register(name, help string) bool {
	if _, ok := r.help[name]; ok {
		return false
	}
	r.help[name] = help
	r.order = append(r.order, name)
	return true
}

// Counter returns the counter registered under name, creating it on first
// use (help is kept from the first registration). Nil-safe: a nil registry
// returns a nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, help)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, help)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers fn to be evaluated at export time under name,
// replacing any plain gauge previously registered with that name. Used for
// derived values (e.g. the device energy model applied to the transport
// counters) that are cheap to compute on scrape but pointless to maintain
// continuously.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, help)
	delete(r.gauges, name) // the func takes precedence at export
	r.funcs[name] = fn
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, help)
	h := newHistogram()
	r.hists[name] = h
	return h
}

// CounterValue reads a counter by name without creating it (zero when
// absent or on a nil registry). Export surfaces and derived gauges use it.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// NetMetrics bundles the four transport counters so the wire layer touches
// one pointer. Nil-safe: a nil *NetMetrics (from a nil registry) no-ops.
type NetMetrics struct {
	MsgsSent, MsgsRecv   *Counter
	BytesSent, BytesRecv *Counter
}

// NetMetrics returns the transport counter bundle of this registry. On a
// nil registry the bundle's handles are all nil, and therefore no-ops.
func (r *Registry) NetMetrics() *NetMetrics {
	if r == nil {
		return &NetMetrics{}
	}
	return &NetMetrics{
		MsgsSent:  r.Counter(MetricMessagesSent, ""),
		MsgsRecv:  r.Counter(MetricMessagesReceived, ""),
		BytesSent: r.Counter(MetricBytesSent, ""),
		BytesRecv: r.Counter(MetricBytesReceived, ""),
	}
}

// PoolMetrics bundles the worker-pool instrumentation points of
// internal/parallel. Nil-safe like NetMetrics.
type PoolMetrics struct {
	Batches    *Counter   // parallel batches started
	Tasks      *Counter   // total task indexes submitted
	QueueDepth *Gauge     // size of the most recent batch (0 when drained)
	WorkerBusy *Histogram // seconds one worker goroutine spent on one batch
}

// PoolMetrics returns the worker-pool metric bundle of this registry. On a
// nil registry the bundle's handles are all nil, and therefore no-ops.
func (r *Registry) PoolMetrics() *PoolMetrics {
	if r == nil {
		return &PoolMetrics{}
	}
	return &PoolMetrics{
		Batches:    r.Counter(MetricParallelBatches, ""),
		Tasks:      r.Counter(MetricParallelTasks, ""),
		QueueDepth: r.Gauge(MetricParallelQueueDepth, ""),
		WorkerBusy: r.Histogram(MetricParallelWorkerBusySeconds, ""),
	}
}
