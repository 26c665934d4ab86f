// Command bench is the repository's benchmark: six fleet-training workloads
// measured end to end with tracing off, and layer by layer in a separate
// traced run. It drives the program only through the public functions of
// plos/internal/... and by wrapping transport.Conn at the link boundary.
// See README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./bench --workload wire-dense --seed 7 --seconds 12 --trace 0
//	go run ./bench -workload all -out set1.json
//	go run ./bench -compare set1.json set2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one run of one
// workload measures for.
const defaultSeconds = 20

// environment is the block every result file carries.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       environment      `json:"env"`
	Quick     bool             `json:"quick"`
	Workloads []workloadResult `json:"workloads"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 7, "seed every generated input derives from")
	seconds := fs.Float64("seconds", defaultSeconds, "how long each workload's timed loop runs")
	reps := fs.Int("reps", 0, "fix the number of timed trainings (at least 3) instead of -seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the span tree here as JSON lines (default: keep it in memory)")
	quick := fs.Bool("quick", false, "smoke-test sizes; structure is checked, quality and speed are not")
	out := fs.String("out", "", "also write the results to this JSON file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two result files given as arguments; exit 1 on any regression")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as this program defines it, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		_, _ = stdout.Write(buildManifest())
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *reps != 0 && *reps < minReps && !*quick {
		fmt.Fprintf(stderr, "bench: -reps below %d reports no median worth comparing\n", minReps)
		return 2
	}
	// Devices are goroutines; more runnable threads than CPUs would time the
	// scheduler's contention, not the program.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS %d is above nproc %d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}

	var chosen []spec
	if *workload == "all" {
		chosen = specs
	} else if s, ok := specByName(*workload); ok {
		chosen = []spec{s}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	expectations, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	opt := options{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace == 1,
		traceOut: *traceOut, quick: *quick}
	if opt.quick && opt.reps == 0 {
		opt.reps = 1
	}
	file := resultFile{Env: readEnvironment(), Quick: opt.quick}
	fmt.Fprintf(stdout, "env: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n", file.Env.NProc,
		file.Env.GOMAXPROCS, file.Env.GoVersion, file.Env.CPUModel, file.Env.Commit)

	status := 0
	for _, s := range chosen {
		r := &runner{spec: s, opt: opt, log: stdout}
		if opt.quick {
			r.spec = s.quick()
		} else if exp, ok := expectations[s.Name]; ok {
			r.exp = &exp
		} else {
			fmt.Fprintf(stderr, "bench: expected.json has no entry for %s\n", s.Name)
			return 2
		}
		r.result.Name, r.result.Seed = s.Name, opt.seed
		if err := r.run(); err != nil {
			r.result.Problems = append(r.result.Problems, err.Error())
		}
		if r.result.Attempted == 0 {
			r.result.Attempted, r.result.Failed = 1, 1
		}
		r.result.Correct = len(r.result.Problems) == 0 && r.result.Failed == 0
		if !r.result.Correct {
			status = 1
			for _, p := range r.result.Problems {
				fmt.Fprintf(stderr, "bench: %s: %s\n", s.Name, p)
			}
		}
		printResult(stdout, &r.result)
		file.Workloads = append(file.Workloads, r.result)
	}
	if *out != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return status
}

// printResult prints every metric of the run by name with its unit, then the
// result line.
func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s  seed=%d  correct=%v  attempted=%d  failed=%d\n", r.Name, r.Seed, r.Correct, r.Attempted, r.Failed)
	if r.PerLayer != nil {
		fmt.Fprintf(w, "  %-30s %-10s %14s  %s\n", "per-layer metric", "unit", "value", "kind")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-30s %-10s %14.6g  %s\n", d.Name, d.Unit, r.PerLayer[d.Name], d.Kind)
		}
	} else {
		fmt.Fprintf(w, "  %-18s %-5s %14s %14s %14s %14s %14s %4s\n", "end-to-end metric", "unit", "median", "q1", "q3", "p10", "p90", "n")
		for _, name := range printedE2E {
			s := r.EndToEnd[name]
			fmt.Fprintf(w, "  %-18s %-5s %14.6g %14.6g %14.6g %14.6g %14.6g %4d\n", name, unitOf(name), s.Median, s.Q1, s.Q3, s.P10, s.P90, s.N)
		}
		if n := r.EndToEnd["train_s"].N; n > 0 {
			fmt.Fprintf(w, "  train_s is a median of %d trainings; highest percentile with ten samples beyond it: p%g\n", n, tailPercentile(n))
		}
		fmt.Fprintln(w, "  the result line carries the timings at their fast decile (p10; solves_per_s p90), the rest at the median")
	}
	line, _ := json.Marshal(r.line())
	fmt.Fprintf(w, "%s\n", line)
}

// printedE2E is what the untraced run prints, in order: the manifest's
// end-to-end six, and among them the three counts the manifest lists per
// layer (README.md, "Departures", says why).
var printedE2E = []string{"setup_s", "train_s", "solves_per_s", "cpu_s",
	"bytes_per_solve", "objective", "accuracy", "alloc_mb", "ops_failed_frac"}
