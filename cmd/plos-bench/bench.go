package main

// The -compress-json mode: the codec-v4 accuracy-vs-bytes sweep, committed as
// BENCH_<pr>.json at the repo root; scripts/checkperf holds the snapshots and
// docs/PERFORMANCE.md to each other.

import (
	"encoding/json"
	"fmt"
	"os"

	"plos/internal/eval"
)

// compressSchema versions the accuracy-vs-bytes snapshot layout.
const compressSchema = "plos-bench/compress-v1"

type compressReport struct {
	Schema string `json:"schema"`
	// Workload names the shared cohort every point was trained on.
	Workload string                  `json:"workload"`
	Points   []eval.CompressionPoint `json:"points"`
}

// runCompressJSON sweeps the codec-v4 schemes over the Fig. 5 HAR workload
// and writes the accuracy-vs-bytes snapshot (committed as BENCH_<pr>.json).
// It fails if the headline scheme (q8 + top-k) misses its pinned target:
// at least 4x fewer parameter-payload bytes with the final objective
// within 5% of the dense run.
func runCompressJSON(path string, seed int64, workers int) error {
	opts := eval.CompressionOptions{
		CohortOptions: eval.CohortOptions{Trials: 1, Seed: seed, Lambda: 100, Cl: 1, Cu: 0.2, Workers: workers},
	}
	points, err := eval.CompressionSweep(opts)
	if err != nil {
		return err
	}
	report := compressReport{
		Schema:   compressSchema,
		Workload: "fig5-har reduced (10 users x 24 samples x dim 120, 5 providers @ 25%)",
		Points:   points,
	}
	headline := false
	for _, p := range points {
		fmt.Fprintf(os.Stderr, "compress %-14s ratio=%5.1fx obj=%.4f gap=%.4f acc=%.3f ef=%.4f\n",
			p.Scheme, p.Ratio, p.Objective, p.ObjGapRel, p.Accuracy, p.EFNorm)
		if p.Scheme == "q8,topk:0.75" {
			headline = true
			if p.Ratio < 4 {
				return fmt.Errorf("compress-json: %s saved only %.2fx bytes, want >= 4x", p.Scheme, p.Ratio)
			}
			if p.ObjGapRel > 0.05 {
				return fmt.Errorf("compress-json: %s objective gap %.4f, want <= 0.05", p.Scheme, p.ObjGapRel)
			}
		}
	}
	if !headline {
		return fmt.Errorf("compress-json: sweep is missing the headline q8,topk:0.75 scheme")
	}

	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("compress-json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("compress-json: %w", err)
	}
	fmt.Fprintln(os.Stderr, "compression snapshot written to", path)
	return nil
}
