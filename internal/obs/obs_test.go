package obs

import (
	"bufio"
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(MetricCCCPIterations, "")
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge(MetricParallelQueueDepth, "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5000; j++ {
				h.Observe(float64(i + 1))
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 40000 {
		t.Fatalf("count = %d, want 40000", h.Count())
	}
	if want := 5000.0 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8); h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	if h.Max() != 8 {
		t.Fatalf("max = %v, want 8", h.Max())
	}
}

// TestHistogramQuantiles checks the streaming quantile estimates against a
// sorted reference within the documented 1/16 relative bucket error.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := newHistogram()
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform over ~7 decades, the realistic span of durations.
		vals[i] = math.Pow(10, -6+8*rng.Float64())
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		ref := vals[int(math.Ceil(q*float64(n)))-1]
		got := h.Quantile(q)
		if got < ref || got > ref*(1+2.0/histSubBuckets) {
			t.Errorf("q=%v: got %v, sorted reference %v (allowed [ref, ref*%.4f])",
				q, got, ref, 1+2.0/histSubBuckets)
		}
	}
	if got, want := h.Quantile(1), vals[n-1]; got != want {
		t.Errorf("q=1: got %v, want exact max %v", got, want)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := newHistogram()
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	h.Observe(0)
	h.Observe(-3)
	if h.Quantile(0.5) != 0 {
		t.Errorf("non-positive observations should report quantile 0, got %v", h.Quantile(0.5))
	}
	h.Observe(1e300) // far above the covered range: clamps, max stays exact
	if h.Max() != 1e300 {
		t.Errorf("max = %v, want 1e300", h.Max())
	}
	if got := h.Quantile(1); got != 1e300 {
		t.Errorf("overflow quantile = %v, want clamped to max", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Add(3)
	r.Gauge("y", "").Set(1)
	r.GaugeFunc("z", "", func() float64 { return 1 })
	r.Histogram("h", "").Observe(1)
	r.FlightRecord(Record{Kind: RecordRunStart})
	r.NetMetrics().BytesSent.Add(1)
	r.PoolMetrics().Tasks.Inc()
	if r.Flight() != nil || r.CounterValue("x") != 0 {
		t.Error("nil registry should read as empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
}

func TestCatalogPreRegistered(t *testing.T) {
	r := NewRegistry()
	snap := r.Snapshot()
	for _, d := range Catalog {
		if d.Kind == KindGaugeFunc {
			continue // registered lazily by the surface that owns the closure
		}
		if _, ok := snap[d.Name]; !ok {
			t.Errorf("catalog metric %q not pre-registered", d.Name)
		}
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)

// ValidatePrometheusText asserts every line of a text exposition is either
// a well-formed comment or a well-formed sample. Shared with the plos-server
// acceptance test via identical logic there.
func validatePrometheusText(t *testing.T, text string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid prometheus line: %q", line)
		}
	}
	if lines == 0 {
		t.Error("empty exposition")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricADMMRounds, "").Add(7)
	r.Gauge(MetricTrainObjective, "").Set(1.5)
	r.Histogram(MetricQPSolveSeconds, "").Observe(0.01)
	r.GaugeFunc(MetricDeviceCommEnergyJoules, "derived", func() float64 { return 2.25 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	validatePrometheusText(t, text)
	for _, want := range []string{
		"admm_rounds_total 7",
		"train_objective 1.5",
		"qp_solve_seconds_count 1",
		"device_comm_energy_joules 2.25",
		`qp_solve_seconds{quantile="0.95"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestGaugeFuncReplacesGauge(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "h").Set(1)
	r.GaugeFunc("g", "h", func() float64 { return 9 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Count(b.String(), "\ng 9") != 1 || strings.Contains(b.String(), "\ng 1") {
		t.Errorf("gauge func should replace the plain gauge:\n%s", b.String())
	}
}

func TestSnapshotMarshals(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricBytesSent, "").Add(1024)
	r.Histogram(MetricADMMRoundSeconds, "").Observe(0.2)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back[MetricBytesSent].(float64) != 1024 {
		t.Errorf("snapshot round-trip lost %s", MetricBytesSent)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter(MetricQPIterations, "")
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	var nilC *Counter
	b.Run("disabled-nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilC.Add(1)
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}
