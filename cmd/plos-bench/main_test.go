package main

import (
	"encoding/json"
	"os"
	"testing"

	"plos/internal/eval"
	"plos/internal/obs"
)

func bench(fig, format string) benchOptions {
	return benchOptions{fig: fig, full: false, trials: 1, seed: 1, lambda: 100, format: format}
}

func TestRunUnknownFormat(t *testing.T) {
	if err := run(bench("9", "xml")); err == nil {
		t.Error("unknown format should error")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run(bench("99", "table")); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestRunSingleFigureReduced(t *testing.T) {
	// Smoke: regenerate one cheap figure end to end through the CLI path.
	if err := run(bench("9", "csv")); err != nil {
		t.Fatalf("run fig 9: %v", err)
	}
}

func TestRunAblationsReduced(t *testing.T) {
	if err := run(bench("ablations", "table")); err != nil {
		t.Fatalf("run ablations: %v", err)
	}
}

func TestCompressJSONSchema(t *testing.T) {
	// Shape-only check; TestRunCompressJSON runs the real sweep behind
	// PLOS_BENCH_E2E.
	rep := compressReport{Schema: compressSchema, Workload: "w",
		Points: []eval.CompressionPoint{{Scheme: "q8", Ratio: 7, Accuracy: 0.8}}}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back["schema"] != compressSchema {
		t.Errorf("schema field = %v", back["schema"])
	}
}

func TestRunCompressJSON(t *testing.T) {
	if os.Getenv("PLOS_BENCH_E2E") == "" {
		t.Skip("set PLOS_BENCH_E2E=1 to run the accuracy-vs-bytes sweep")
	}
	path := t.TempDir() + "/compress.json"
	o := bench("all", "table")
	o.compressJSON = path
	if err := run(o); err != nil {
		t.Fatalf("run with -compress-json: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep compressReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if rep.Schema != compressSchema || len(rep.Points) < 2 || rep.Points[0].Scheme != "dense" {
		t.Fatalf("unexpected snapshot: %+v", rep)
	}
}

func TestAsyncJSONSchema(t *testing.T) {
	// Shape-only check; TestRunAsyncJSON runs the three straggler arms
	// behind PLOS_BENCH_E2E.
	rep := asyncReport{Schema: asyncSchema, Workload: "w",
		StragglerDelayMS: 100, RoundTimeoutMS: 98,
		Arms: []asyncArm{{Name: "async", WallSeconds: 0.2, Objective: 0.8,
			Accuracy: 0.84, ADMMRounds: 240, CCCPRounds: 3}},
		Speedup: 2.9, ObjGapRel: 0.013}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back["schema"] != asyncSchema {
		t.Errorf("schema field = %v", back["schema"])
	}
	if back["speedup"].(float64) != 2.9 {
		t.Errorf("speedup field = %v", back["speedup"])
	}
}

func TestRunAsyncJSON(t *testing.T) {
	if os.Getenv("PLOS_BENCH_E2E") == "" {
		t.Skip("set PLOS_BENCH_E2E=1 to run the straggler scenario")
	}
	path := t.TempDir() + "/async.json"
	o := bench("all", "table")
	o.asyncJSON = path
	if err := run(o); err != nil {
		t.Fatalf("run with -async-json: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep asyncReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if rep.Schema != asyncSchema || len(rep.Arms) != 3 || rep.Speedup < 2 {
		t.Fatalf("unexpected snapshot: %+v", rep)
	}
}

func TestRunMetricsJSON(t *testing.T) {
	path := t.TempDir() + "/metrics.json"
	o := bench("9", "csv")
	o.metricsJSON = path
	if err := run(o); err != nil {
		t.Fatalf("run with -metrics-json: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file missing: %v", err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file not JSON: %v", err)
	}
	for _, name := range []string{obs.MetricTrainRuns, obs.MetricCCCPIterations, obs.MetricQPSolves} {
		v, ok := snap[name].(float64)
		if !ok || v == 0 {
			t.Errorf("metrics JSON missing nonzero %s (got %v)", name, snap[name])
		}
	}
}
