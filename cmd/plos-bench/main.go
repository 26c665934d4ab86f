// plos-bench regenerates the paper's evaluation figures (Figures 3–13) and
// the repo's ablations, printing each panel as an aligned table.
//
// Default sizes are reduced so every figure completes in seconds-to-minutes
// on a laptop; pass -full for the paper-scale cohorts (20 subjects × 70
// segments, 30 HAR users × 561 dims, populations up to 100 users).
//
//	plos-bench -fig 3          # one figure
//	plos-bench -fig all        # everything
//	plos-bench -fig ablations  # DESIGN.md §5 ablations
//	plos-bench -fig 8 -full -trials 5
//	plos-bench -fig 11 -metrics-json out.json   # solver/transport metrics
package main

import (
	"flag"
	"fmt"
	"os"

	"plos/internal/eval"
	"plos/internal/obs"
	"plos/internal/parallel"
)

func main() {
	// A child spawned by -shard-json re-enters here as a shard worker.
	if spec := os.Getenv(shardWorkerEnv); spec != "" {
		if err := runShardWorker(spec); err != nil {
			fmt.Fprintln(os.Stderr, "plos-bench:", err)
			os.Exit(1)
		}
		return
	}
	var o benchOptions
	flag.StringVar(&o.fig, "fig", "all", "figure to regenerate: 3..13, 'ablations', or 'all'")
	flag.BoolVar(&o.full, "full", false, "paper-scale cohorts (slow)")
	flag.IntVar(&o.trials, "trials", 0, "trials per point (default 3, or 1 when reduced)")
	flag.Int64Var(&o.seed, "seed", 1, "experiment seed")
	flag.Float64Var(&o.lambda, "lambda", 100, "PLOS lambda")
	flag.IntVar(&o.workers, "workers", 0, "goroutine fan-out (0 = GOMAXPROCS, 1 = sequential); figure values are identical either way")
	flag.StringVar(&o.format, "format", "table", "output format: table | csv")
	flag.StringVar(&o.metricsJSON, "metrics-json", "",
		"write the aggregate solver/transport metrics of the whole run to this JSON file")
	flag.StringVar(&o.asyncJSON, "async-json", "",
		"run the asynchronous-wire straggler scenario (docs/ASYNC.md) instead of figures and write the snapshot to this JSON file")
	flag.StringVar(&o.compressJSON, "compress-json", "",
		"run the codec-v4 accuracy-vs-bytes sweep (Fig. 5 workload, one run per compression scheme) instead of figures and write the snapshot to this JSON file")
	flag.StringVar(&o.shardJSON, "shard-json", "",
		"run the sharded serving-plane scale scenario (docs/SHARDING.md) instead of figures and write the snapshot to this JSON file")
	flag.IntVar(&o.shardDevices, "shard-devices", 10000, "total simulated devices for -shard-json")
	flag.IntVar(&o.shardCount, "shard-count", 2, "shard worker processes for -shard-json (>= 2)")
	flag.BoolVar(&o.shardKill, "shard-kill", false,
		"with -shard-json: SIGKILL shard 0 mid-run and measure the checkpoint-restore rejoin (schema v2 snapshot)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "plos-bench:", err)
		os.Exit(1)
	}
}

type benchOptions struct {
	fig          string
	full         bool
	trials       int
	seed         int64
	lambda       float64
	workers      int
	format       string
	metricsJSON  string
	asyncJSON    string
	compressJSON string
	shardJSON    string
	shardDevices int
	shardCount   int
	shardKill    bool
}

func run(o benchOptions) error {
	if o.shardJSON != "" {
		if o.shardKill {
			return runShardKillJSON(o)
		}
		return runShardJSON(o)
	}
	if o.asyncJSON != "" {
		return runAsyncJSON(o.asyncJSON, o.seed)
	}
	if o.compressJSON != "" {
		return runCompressJSON(o.compressJSON, o.seed, o.workers)
	}
	fig, full, trials, seed, lambda, workers, format :=
		o.fig, o.full, o.trials, o.seed, o.lambda, o.workers, o.format
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", format)
	}
	if trials <= 0 {
		if full {
			trials = 3
		} else {
			trials = 1
		}
	}
	cohort := eval.CohortOptions{Trials: trials, Seed: seed, Lambda: lambda, Cl: 1, Cu: 0.2, Workers: workers}
	var reg *obs.Registry
	if o.metricsJSON != "" {
		reg = obs.NewRegistry()
		parallel.SetMetrics(reg.PoolMetrics())
		defer parallel.SetMetrics(nil)
		cohort.Obs = reg
	}

	body := eval.BodyOptions{CohortOptions: cohort}
	harOpt := eval.HAROptions{CohortOptions: cohort}
	synth := eval.SynthOptions{CohortOptions: cohort}
	scale := eval.ScaleOptions{CohortOptions: cohort}
	if !full {
		body.Subjects, body.Segments = 10, 20
		body.ProviderCounts = []int{2, 4, 6, 8}
		body.FixedProviders = 5
		harOpt.Users, harOpt.PerClass, harOpt.Dim = 12, 25, 120
		harOpt.ProviderCounts = []int{3, 6, 9, 12}
		harOpt.FixedProviders = 6
		harOpt.LogLambdas = []float64{0, 1, 2, 3, 4}
		synth.UsersCount, synth.PerClass = 10, 60
		scale.UserCounts = []int{5, 10, 20, 40}
		scale.PerClass = 25
	}

	type panels func() ([]eval.Figure, error)
	two := func(f func() (eval.Figure, eval.Figure, error)) panels {
		return func() ([]eval.Figure, error) {
			a, b, err := f()
			return []eval.Figure{a, b}, err
		}
	}
	one := func(f func() (eval.Figure, error)) panels {
		return func() ([]eval.Figure, error) {
			a, err := f()
			return []eval.Figure{a}, err
		}
	}
	figures := map[string]panels{
		"3":      two(func() (eval.Figure, eval.Figure, error) { return eval.Fig3(body) }),
		"4":      two(func() (eval.Figure, eval.Figure, error) { return eval.Fig4(body) }),
		"5":      two(func() (eval.Figure, eval.Figure, error) { return eval.Fig5(harOpt) }),
		"6":      two(func() (eval.Figure, eval.Figure, error) { return eval.Fig6(harOpt) }),
		"7":      two(func() (eval.Figure, eval.Figure, error) { return eval.Fig7(harOpt) }),
		"8":      two(func() (eval.Figure, eval.Figure, error) { return eval.Fig8(synth) }),
		"9":      two(func() (eval.Figure, eval.Figure, error) { return eval.Fig9(synth) }),
		"10":     two(func() (eval.Figure, eval.Figure, error) { return eval.Fig10(synth) }),
		"11":     two(func() (eval.Figure, eval.Figure, error) { return eval.Fig11(scale) }),
		"12":     one(func() (eval.Figure, error) { return eval.Fig12(scale) }),
		"13":     one(func() (eval.Figure, error) { return eval.Fig13(scale) }),
		"energy": one(func() (eval.Figure, error) { return eval.EnergyComparison(scale) }),
		"ablations": func() ([]eval.Figure, error) {
			var out []eval.Figure
			for _, run := range []func(eval.SynthOptions) (eval.Figure, error){
				eval.AblationCu,
				eval.AblationWarmSets,
				eval.AblationBalanceGuard,
				eval.AblationAsync,
			} {
				f, err := run(synth)
				if err != nil {
					return nil, err
				}
				out = append(out, f)
			}
			return out, nil
		},
	}

	order := []string{"3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "energy", "ablations"}
	var selected []string
	if fig == "all" {
		selected = order
	} else {
		if _, ok := figures[fig]; !ok {
			return fmt.Errorf("unknown figure %q (want 3..13, 'energy', 'ablations', or 'all')", fig)
		}
		selected = []string{fig}
	}
	// Per-figure fan-out: independent figures run concurrently; outputs are
	// gathered by position and printed in the canonical order. The timing
	// figures (12, energy) measure wall clock, so they run sequentially
	// after the pool drains instead of contending with the others.
	timing := map[string]bool{"12": true, "energy": true}
	var pooled, timed []int
	for i, id := range selected {
		if timing[id] {
			timed = append(timed, i)
		} else {
			pooled = append(pooled, i)
		}
	}
	results := make([][]eval.Figure, len(selected))
	if err := parallel.For(workers, len(pooled), func(k int) error {
		i := pooled[k]
		out, err := figures[selected[i]]()
		if err != nil {
			return fmt.Errorf("figure %s: %w", selected[i], err)
		}
		results[i] = out
		return nil
	}); err != nil {
		return err
	}
	for _, i := range timed {
		out, err := figures[selected[i]]()
		if err != nil {
			return fmt.Errorf("figure %s: %w", selected[i], err)
		}
		results[i] = out
	}
	for _, out := range results {
		for _, f := range out {
			if format == "csv" {
				fmt.Printf("# %s: %s\n%s\n", f.ID, f.Title, f.CSV())
			} else {
				fmt.Println(f.Format())
			}
		}
	}
	if reg != nil {
		f, err := os.Create(o.metricsJSON)
		if err != nil {
			return fmt.Errorf("metrics-json: %w", err)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			return fmt.Errorf("metrics-json: %w", err)
		}
		fmt.Fprintln(os.Stderr, "metrics written to", o.metricsJSON)
	}
	return nil
}
