package main

// metricDef names one metric of the benchmark. BENCHMARK.json lists the same
// names, units, directions and bounds; bench_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before it counts as a regression; per-layer metrics have none.
	Bound float64
	// Quiet marks a timing whose result-line value is the decile on its good
	// side instead of the median. What disturbs a timing on a shared host (a
	// neighbour contending for cache and memory, steal) only ever adds time,
	// for seconds to minutes on end; the median of a run follows it, the
	// fast decile needs only a tenth of the run undisturbed to stay put
	// (README.md, "Measured spread", has the numbers).
	Quiet bool
	// Kind says how a per-layer metric is taken: P a timed probe loop over
	// the layer's public function, S derived from conn-boundary spans, C a
	// count from a public result, R a whole extra training run.
	Kind string
	// Moves names the end-to-end metric and workload a change to this
	// metric should show on (written before anything was measured).
	Moves string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off, by the same names on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Quiet: true},
	{Name: "train_s", Unit: "s", Better: "lower", Bound: 0.25, Quiet: true},
	{Name: "solves_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Quiet: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, Quiet: true},
	{Name: "accuracy", Unit: "1", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = []metricDef{
	{Name: "bytes_per_solve", Unit: "B", Better: "lower", Kind: "C", Moves: "bytes_per_solve itself (a count, not gated: it is 0 on central-cut, dist-inproc) on wire-*, shard-plane"},
	{Name: "objective", Unit: "1", Better: "lower", Kind: "C", Moves: "accuracy on every workload; held within 1 % of the recorded seeds by the correctness check"},
	{Name: "ops_failed_frac", Unit: "1", Better: "lower", Kind: "C", Moves: "ops_failed_frac itself; must stay 0 on every workload"},

	{Name: "mat.dot_ns", Unit: "ns", Better: "lower", Kind: "P", Moves: "train_s on central-cut, dist-inproc"},
	{Name: "mat.mulvec_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on central-cut, dist-inproc"},
	{Name: "mat.cholesky_ms", Unit: "ms", Better: "lower", Kind: "P", Moves: "train_s on wire-dense, wire-q8topk, wire-async via join"},

	{Name: "qp.solve_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on central-cut"},
	{Name: "qp.solve_allocs", Unit: "allocs/op", Better: "lower", Kind: "P", Moves: "alloc_mb on central-cut"},
	{Name: "qp.project_simplex_ns", Unit: "ns", Better: "lower", Kind: "P", Moves: "train_s on dist-inproc, shard-plane"},
	{Name: "qp.project_budget_ns", Unit: "ns", Better: "lower", Kind: "P", Moves: "train_s on central-cut"},
	{Name: "qp.gram_grow_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s, alloc_mb on central-cut"},
	{Name: "qp.iters_per_solve", Unit: "count", Better: "lower", Kind: "C", Moves: "train_s on central-cut"},

	{Name: "optimize.most_violated_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on central-cut, dist-inproc"},
	{Name: "optimize.cut_rounds", Unit: "count", Better: "lower", Kind: "C", Moves: "pinned; solves_per_s on central-cut if it moves"},
	{Name: "optimize.cccp_rounds", Unit: "count", Better: "lower", Kind: "C", Moves: "pinned; train_s on every workload if it moves"},

	{Name: "core.worker_solve_us_p50", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s, solves_per_s on dist-inproc, shard-plane"},
	{Name: "core.worker_solve_us_p90", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on dist-inproc"},
	{Name: "core.worker_first_solve_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on shard-plane"},
	{Name: "core.worker_solve_allocs", Unit: "allocs/op", Better: "lower", Kind: "P", Moves: "alloc_mb on dist-inproc, shard-plane"},
	{Name: "core.worker_solve_bytes", Unit: "B/op", Better: "lower", Kind: "P", Moves: "alloc_mb on dist-inproc, shard-plane"},
	{Name: "core.local_init_ms", Unit: "ms", Better: "lower", Kind: "P", Moves: "train_s on wire-dense, wire-q8topk, wire-async; none on central-cut, dist-inproc, shard-plane"},
	{Name: "core.device_solve_ms_p50", Unit: "ms", Better: "lower", Kind: "S", Moves: "solves_per_s on wire-async"},
	{Name: "core.device_solve_ms_p90", Unit: "ms", Better: "lower", Kind: "S", Moves: "train_s on wire-dense: the slowest device sets the round"},

	{Name: "admm.step_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on wire-dense, dist-inproc"},
	{Name: "admm.async_fold_us", Unit: "us", Better: "lower", Kind: "P", Moves: "solves_per_s on wire-async only"},
	{Name: "admm.rounds", Unit: "count", Better: "lower", Kind: "C", Moves: "pinned; train_s on dist-inproc, wire-*, shard-plane if it moves"},

	{Name: "parallel.speedup", Unit: "1", Better: "higher", Kind: "R", Moves: "train_s on dist-inproc, central-cut; none on wire-*"},

	{Name: "transport.encode_ns", Unit: "ns", Better: "lower", Kind: "P", Moves: "train_s on wire-dense"},
	{Name: "transport.decode_ns", Unit: "ns", Better: "lower", Kind: "P", Moves: "train_s on wire-dense"},
	{Name: "transport.encode_allocs", Unit: "allocs/op", Better: "lower", Kind: "P", Moves: "alloc_mb on wire-dense"},
	{Name: "transport.decode_allocs", Unit: "allocs/op", Better: "lower", Kind: "P", Moves: "alloc_mb on wire-dense"},
	{Name: "transport.frame_bytes_update", Unit: "B", Better: "lower", Kind: "C", Moves: "bytes_per_solve on wire-dense"},
	{Name: "transport.frame_bytes_control", Unit: "B", Better: "lower", Kind: "C", Moves: "bytes_per_solve on shard-plane"},
	{Name: "transport.pipe_rtt_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on shard-plane"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on wire-dense"},
	{Name: "transport.stack_rtt_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on wire-dense as plos.Serve wires it"},
	{Name: "transport.send_busy_ms_p50", Unit: "ms", Better: "lower", Kind: "S", Moves: "train_s on wire-dense, wire-q8topk"},

	{Name: "compress.encode_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on wire-q8topk; none on wire-dense"},
	{Name: "compress.decode_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on wire-q8topk; none on wire-dense"},
	{Name: "compress.encode_allocs", Unit: "allocs/op", Better: "lower", Kind: "P", Moves: "alloc_mb on wire-q8topk"},
	{Name: "compress.ratio", Unit: "1", Better: "higher", Kind: "C", Moves: "bytes_per_solve on wire-q8topk"},

	{Name: "protocol.join_ms", Unit: "ms", Better: "lower", Kind: "S", Moves: "train_s on wire-*"},
	{Name: "protocol.round_ms_p50", Unit: "ms", Better: "lower", Kind: "S", Moves: "train_s on wire-dense, wire-q8topk, shard-plane"},
	{Name: "protocol.round_ms_p90", Unit: "ms", Better: "lower", Kind: "S", Moves: "train_s on wire-dense"},
	{Name: "protocol.gather_wait_ms_p50", Unit: "ms", Better: "lower", Kind: "S", Moves: "train_s on wire-dense"},
	{Name: "protocol.fold_us_p50", Unit: "us", Better: "lower", Kind: "S", Moves: "solves_per_s on wire-async, shard-plane"},
	{Name: "protocol.device_idle_frac", Unit: "1", Better: "lower", Kind: "S", Moves: "solves_per_s on wire-*"},
	{Name: "protocol.drops", Unit: "count", Better: "lower", Kind: "C", Moves: "ops_failed_frac on wire-*, shard-plane"},

	{Name: "shard.sumxu_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on shard-plane only"},
	{Name: "shard.fold_us", Unit: "us", Better: "lower", Kind: "P", Moves: "train_s on shard-plane only"},
	{Name: "shard.reduce_ms_p50", Unit: "ms", Better: "lower", Kind: "S", Moves: "train_s on shard-plane only"},
	{Name: "shard.agg_bytes_per_iter", Unit: "B", Better: "lower", Kind: "C", Moves: "bytes_per_solve on shard-plane only"},

	{Name: "obs.overhead_frac", Unit: "1", Better: "lower", Kind: "R", Moves: "train_s on dist-inproc; bar < 0.02"},

	{Name: "trace.overhead_frac", Unit: "1", Better: "lower", Kind: "R", Moves: "train_s of the traced run only, on every workload: the cost of the span wrappers; bar < 0.05"},
	{Name: "proc.peak_heap_mb", Unit: "MB", Better: "lower", Kind: "R", Moves: "alloc_mb on every workload"},
	{Name: "proc.gc_cpu_frac", Unit: "1", Better: "lower", Kind: "R", Moves: "train_s on shard-plane"},
	{Name: "proc.allocs_per_solve", Unit: "allocs/op", Better: "lower", Kind: "R", Moves: "alloc_mb on every workload"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unitOf looks a metric's unit up in the catalogue.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
