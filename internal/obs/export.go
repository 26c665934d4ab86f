package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// kindOf resolves the export kind of a registered name. Caller holds r.mu.
func (r *Registry) kindOf(name string) Kind {
	if _, ok := r.funcs[name]; ok {
		return KindGaugeFunc
	}
	if _, ok := r.counters[name]; ok {
		return KindCounter
	}
	if _, ok := r.gauges[name]; ok {
		return KindGauge
	}
	if _, ok := r.hists[name]; ok {
		return KindHistogram
	}
	return 0
}

func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), using only the standard library.
// Counters and gauges are scalars; histograms are rendered as summaries
// with p50/p95 quantiles plus a companion <name>_max gauge. Metrics appear
// in registration order, so consecutive scrapes diff cleanly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	help := make(map[string]string, len(names))
	for _, n := range names {
		help[n] = r.help[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range names {
		r.mu.Lock()
		kind := r.kindOf(name)
		c := r.counters[name]
		g := r.gauges[name]
		fn := r.funcs[name]
		h := r.hists[name]
		r.mu.Unlock()

		if help[name] != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(help[name], "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		switch kind {
		case KindCounter:
			fmt.Fprintf(&b, "%s %d\n", name, c.Value())
		case KindGauge:
			fmt.Fprintf(&b, "%s %s\n", name, promFloat(g.Value()))
		case KindGaugeFunc:
			fmt.Fprintf(&b, "%s %s\n", name, promFloat(fn()))
		case KindHistogram:
			fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", name, promFloat(h.Quantile(0.5)))
			fmt.Fprintf(&b, "%s{quantile=\"0.95\"} %s\n", name, promFloat(h.Quantile(0.95)))
			fmt.Fprintf(&b, "%s_sum %s\n", name, promFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", name, h.Count())
			fmt.Fprintf(&b, "# TYPE %s_max gauge\n", name)
			fmt.Fprintf(&b, "%s_max %s\n", name, promFloat(h.Max()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// HistogramSnapshot is the snapshot form of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	Max   float64 `json:"max"`
}

// Snapshot returns every metric's current value keyed by name: counters as
// int64, gauges (and gauge funcs) as float64, histograms as
// HistogramSnapshot. The result JSON-marshals cleanly (NaN quantiles of
// empty histograms are reported as 0) — it backs both the expvar surface
// and plos-bench -metrics-json.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		kind := r.kindOf(name)
		c := r.counters[name]
		g := r.gauges[name]
		fn := r.funcs[name]
		h := r.hists[name]
		r.mu.Unlock()
		switch kind {
		case KindCounter:
			out[name] = c.Value()
		case KindGauge:
			out[name] = g.Value()
		case KindGaugeFunc:
			out[name] = fn()
		case KindHistogram:
			s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.Max()}
			if s.Count > 0 {
				s.P50 = h.Quantile(0.5)
				s.P95 = h.Quantile(0.95)
			}
			out[name] = s
		}
	}
	return out
}

// WriteJSON writes the Snapshot as one indented JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
