package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"plos/internal/core"
	"plos/internal/obs"
)

// options are the knobs of one invocation.
type options struct {
	seed     int64
	seconds  float64 // how long the timed loop of one workload runs
	reps     int     // > 0 fixes the number of timed trainings instead
	trace    bool
	traceOut string
	quick    bool
}

// minReps is the fewest timed trainings a run reports a median of.
const minReps = 3

// workloadResult is one workload's part of a result file.
type workloadResult struct {
	Name      string             `json:"name"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Counts    map[string]float64 `json:"counts"`
	// EndToEnd digests the timed, untraced trainings; PerLayer is filled by
	// a traced run only.
	EndToEnd map[string]summary `json:"end_to_end,omitempty"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

// resultLine is the last line of standard output: the contract with the
// driver that runs the benchmark.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *workloadResult) line() resultLine {
	out := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	if r.PerLayer != nil {
		for _, d := range perLayer {
			out.Metrics[d.Name] = metricValue{Value: r.PerLayer[d.Name], Unit: d.Unit}
		}
		return out
	}
	for _, d := range endToEnd {
		out.Metrics[d.Name] = metricValue{Value: r.EndToEnd[d.Name].reported(d), Unit: d.Unit}
	}
	return out
}

//go:embed expected.json
var expectedJSON []byte

// expectation is what a full-size training of one workload must produce.
// The ranges hold for any seed; Seeds pins the exact outcome of the recorded
// seeds, within the tolerance a re-ordered floating-point sum may move it.
type expectation struct {
	Objective   [2]float64 `json:"objective"`
	AccuracyMin float64    `json:"accuracy_min"`
	Bytes       [2]int64   `json:"bytes"`
	Seeds       map[string]struct {
		Objective float64 `json:"objective"`
		Accuracy  float64 `json:"accuracy"`
		Bytes     int64   `json:"bytes"`
	} `json:"seeds"`
}

func loadExpectations() (map[string]expectation, error) {
	var all map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return all, nil
}

// Tolerances of the recorded-seed check: the objective within 1 % and the
// accuracy within 0.01 of the recorded run.
const (
	objectiveTol = 0.01
	accuracyTol  = 0.01
)

// check lists everything wrong with one training's output. exp is nil for
// quick runs, which are checked for structure only.
func (s spec) check(out *outcome, exp *expectation, seed int64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if out.rounds != s.wantRounds() {
		fail("%d rounds, pinned budget is %d", out.rounds, s.wantRounds())
	}
	if out.info.CCCPIterations != s.CCCP {
		fail("%d CCCP rounds, pinned budget is %d", out.info.CCCPIterations, s.CCCP)
	}
	if out.solves != s.wantSolves() {
		fail("%d local solves, want %d", out.solves, s.wantSolves())
	}
	if !finite(out.w0) {
		fail("global model is not finite")
	}
	if len(out.models) != s.Users {
		fail("%d personalized models for %d users", len(out.models), s.Users)
	}
	for t, w := range out.models {
		if !finite(w) {
			fail("user %d has no finite model", t)
			break
		}
	}
	for t, w0 := range out.deviceW0 {
		if !sameBits(w0, out.w0) {
			fail("device %d ended with a global model that differs from the server's", t)
			break
		}
	}
	if out.failed != 0 {
		fail("%d of %d operations failed", out.failed, out.attempted)
	}
	if math.IsNaN(out.info.Objective) || math.IsInf(out.info.Objective, 0) {
		fail("objective is not finite")
	}
	if (s.Trainer == trainCentral || s.Trainer == trainDist) && out.bytes != 0 {
		fail("%d bytes on the wire of an in-process trainer", out.bytes)
	}
	if exp == nil {
		return bad
	}

	if obj := out.info.Objective; obj < exp.Objective[0] || obj > exp.Objective[1] {
		fail("objective %.6g outside [%g, %g]", obj, exp.Objective[0], exp.Objective[1])
	}
	if out.accuracy < exp.AccuracyMin {
		fail("accuracy %.4f below floor %g", out.accuracy, exp.AccuracyMin)
	}
	if out.bytes < exp.Bytes[0] || out.bytes > exp.Bytes[1] {
		fail("%d bytes on the wire outside [%d, %d]", out.bytes, exp.Bytes[0], exp.Bytes[1])
	}
	if rec, ok := exp.Seeds[strconv.FormatInt(seed, 10)]; ok {
		if d := math.Abs(out.info.Objective - rec.Objective); d > objectiveTol*rec.Objective {
			fail("objective %.9g is off the recorded %.9g by more than %g", out.info.Objective, rec.Objective, objectiveTol)
		}
		if d := math.Abs(out.accuracy - rec.Accuracy); d > accuracyTol {
			fail("accuracy %.4f is off the recorded %.4f by more than %g", out.accuracy, rec.Accuracy, accuracyTol)
		}
		if !s.Async && out.bytes != rec.Bytes {
			fail("%d bytes on the wire, recorded %d", out.bytes, rec.Bytes)
		}
	}
	return bad
}

// runner carries one workload through a run.
type runner struct {
	spec   spec
	opt    options
	exp    *expectation
	result workloadResult
	log    io.Writer
}

// once sets up and runs a single training: inputs generated from the seed
// afresh (so every repetition yields a setup_s sample), links dialled, then
// the training. rec, when non-nil, traces it. It returns the set-up time and
// the accounted outcome.
func (r *runner) once(rec *recorder, tweak func(*core.Config)) (time.Duration, *outcome, error) {
	start := time.Now()
	in, err := r.spec.generate(r.opt.seed)
	if err != nil {
		return 0, nil, err
	}
	f, err := r.spec.connect(rec)
	if err != nil {
		return 0, nil, err
	}
	defer f.close()
	setup := time.Since(start)
	out, err := r.spec.train(in, f, r.opt.seed, tweak)
	return setup, out, err
}

// account folds one training into the run's attempted/failed totals and
// records whatever check finds wrong with it. A training that errored counts
// as one failed attempt; the caller returns the error itself.
func (r *runner) account(out *outcome, err error) {
	if err != nil {
		r.result.Attempted++
		r.result.Failed++
		return
	}
	r.result.Attempted += out.attempted
	r.result.Failed += out.failed
	r.result.Problems = append(r.result.Problems, r.spec.check(out, r.exp, r.opt.seed)...)
	r.result.Counts = map[string]float64{
		"cccp_rounds": float64(out.info.CCCPIterations),
		"rounds":      float64(out.rounds),
		"solves":      float64(out.solves),
		"bytes":       float64(out.bytes),
		"constraints": float64(out.info.Constraints),
	}
}

// run measures the workload: one untimed warm-up training to fault in heap
// and code, then timed trainings of identical work for opt.seconds.
func (r *runner) run() error {
	_, out, err := r.once(nil, nil)
	r.account(out, err) // the warm-up is untimed, not unchecked
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if r.opt.trace {
		return r.traced()
	}

	samples := map[string][]float64{}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	began := time.Now()
	for rep := 0; ; rep++ {
		setup, out, err := r.once(nil, nil)
		r.account(out, err)
		if err != nil {
			return err
		}
		wall := out.wall.Seconds()
		add("setup_s", setup.Seconds())
		add("train_s", wall)
		add("solves_per_s", float64(out.solves)/wall)
		add("cpu_s", out.cpu.Seconds())
		add("objective", out.info.Objective)
		add("accuracy", out.accuracy)
		add("alloc_mb", float64(out.alloc)/1e6)
		add("bytes_per_solve", float64(out.bytes)/float64(out.solves))
		done := rep + 1
		if r.opt.reps > 0 {
			if done >= r.opt.reps {
				break
			}
		} else if done >= minReps && time.Since(began).Seconds() >= r.opt.seconds {
			break
		}
	}
	r.result.EndToEnd = map[string]summary{}
	for name, v := range samples {
		r.result.EndToEnd[name] = summarize(v)
	}
	r.result.EndToEnd["ops_failed_frac"] = summary{
		Median: float64(r.result.Failed) / float64(r.result.Attempted), N: len(samples["train_s"])}
	return nil
}

// A traced run splits opt.seconds between its parts so it lasts about as
// long as an untraced one: tracedShare of it alternating untraced and traced
// trainings, 1/probeShare of it per probe loop, the rest on the knob runs.
const (
	tracedShare = 0.4
	probeShare  = 60
	knobRounds  = 3
)

// traced takes the per-layer numbers: alternating untraced and traced
// trainings (their ratio is the tracing overhead), the span tree of the last
// traced one, the layer probes, and the extra runs that vary one knob.
func (r *runner) traced() error {
	pairs := 2
	if r.opt.quick {
		pairs = 1
	}
	var plain, withSpans []float64
	var rec *recorder
	var out *outcome
	began := time.Now()
	for i := 0; i < pairs || (!r.opt.quick && time.Since(began).Seconds() < tracedShare*r.opt.seconds); i++ {
		// Per link and direction: hello, one op per lockstep round, a
		// start-round per CCCP round, done; async links take about as many.
		rec = &recorder{opsHint: r.spec.CCCP*(r.spec.ADMM+1) + 4}
		// Alternate which side of the pair runs first, so whatever the
		// previous training leaves behind taxes both sides equally.
		for _, traced := range []bool{i%2 == 1, i%2 == 0} {
			var use *recorder
			if traced {
				use = rec
			}
			_, one, err := r.once(use, nil)
			r.account(one, err)
			if err != nil {
				return err
			}
			if traced {
				out, withSpans = one, append(withSpans, one.wall.Seconds())
			} else {
				plain = append(plain, one.wall.Seconds())
			}
		}
	}

	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0 // a metric with nothing to measure on this workload reads 0
	}
	m["trace.overhead_frac"] = median(withSpans)/median(plain) - 1
	spans := rec.tree(1, 0, out.wall, r.spec.Async)
	spanMetrics(spans, out, m)

	m["bytes_per_solve"] = float64(out.bytes) / float64(out.solves)
	m["objective"] = out.info.Objective
	m["ops_failed_frac"] = float64(r.result.Failed) / float64(r.result.Attempted)
	m["optimize.cut_rounds"] = float64(out.info.CutRounds)
	m["optimize.cccp_rounds"] = float64(out.info.CCCPIterations)
	if n := out.info.ADMMIterations; n > 0 {
		m["admm.rounds"] = float64(n)
		m["shard.agg_bytes_per_iter"] = float64(out.aggBytes) / float64(n)
	}
	m["protocol.drops"] = float64(out.drops)
	m["proc.allocs_per_solve"] = float64(out.mallocs) / float64(out.solves)

	budget := time.Duration(r.opt.seconds / probeShare * float64(time.Second))
	if r.opt.quick {
		budget = time.Millisecond
	}
	if err := runProbes(r.opt.seed, budget, m); err != nil {
		return err
	}
	if err := r.knobRuns(m); err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["proc.peak_heap_mb"] = float64(ms.HeapSys) / 1e6
	m["proc.gc_cpu_frac"] = ms.GCCPUFraction
	r.result.PerLayer = m

	fmt.Fprintf(r.log, "span layers of the last traced training (%.3f s, %d spans):\n", out.wall.Seconds(), len(spans))
	printLayerTable(r.log, layerTable(spans), out.wall.Seconds(), m["trace.overhead_frac"])
	if r.opt.traceOut == "" {
		return nil
	}
	f, err := os.Create(r.opt.traceOut)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// knobRuns are the per-layer metrics that take whole trainings: dist-inproc
// (cut to two CCCP rounds, to fit the run) at all workers, at one worker
// (parallel.speedup) and with an obs.Registry attached (obs.overhead_frac),
// alternated knobRounds times, medians compared. Whichever workload's traced
// run asks, the trainings are dist-inproc's.
func (r *runner) knobRuns(m map[string]float64) error {
	s, _ := specByName("dist-inproc")
	s.CCCP = 2
	rounds := knobRounds
	if r.opt.quick {
		s, rounds = s.quick(), 1
	}
	k := &runner{spec: s, opt: r.opt}
	knobs := []func(*core.Config){
		nil,
		func(c *core.Config) { c.Workers = 1 },
		func(c *core.Config) { c.Obs = obs.NewRegistry() },
	}
	walls := make([][]float64, len(knobs))
	for i := 0; i < rounds; i++ {
		for j, tweak := range knobs {
			_, out, err := k.once(nil, tweak)
			if err != nil {
				return fmt.Errorf("knob run on %s: %w", s.Name, err)
			}
			walls[j] = append(walls[j], out.wall.Seconds())
		}
	}
	all := median(walls[0])
	m["parallel.speedup"] = median(walls[1]) / all
	m["obs.overhead_frac"] = median(walls[2])/all - 1
	return nil
}

// spanMetrics reads the span-derived per-layer metrics off the tree.
func spanMetrics(spans []span, out *outcome, m map[string]float64) {
	solve := durationsMS(spans, "device.solve")
	m["core.device_solve_ms_p50"] = percentile(solve, 50)
	m["core.device_solve_ms_p90"] = percentile(solve, 90)
	sends := append(durationsMS(spans, "server.send"), durationsMS(spans, "device.send")...)
	m["transport.send_busy_ms_p50"] = percentile(sends, 50)
	if join := durationsMS(spans, "join"); len(join) > 0 && len(solve) > 0 {
		m["protocol.join_ms"] = join[0]
	}
	rounds := durationsMS(spans, "round")
	m["protocol.round_ms_p50"] = percentile(rounds, 50)
	m["protocol.round_ms_p90"] = percentile(rounds, 90)
	m["protocol.gather_wait_ms_p50"] = percentile(durationsMS(spans, "gather"), 50)
	m["protocol.fold_us_p50"] = percentile(durationsMS(spans, "fold"), 50) * 1e3
	m["shard.reduce_ms_p50"] = percentile(durationsMS(spans, "shard.reduce"), 50)
	idle := 0.0
	for _, d := range durationsMS(spans, "device.wait") {
		idle += d
	}
	if n := len(out.deviceW0); n > 0 {
		m["protocol.device_idle_frac"] = idle / 1e3 / (float64(n) * out.wall.Seconds())
	}
}
