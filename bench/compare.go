package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload × end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a baseline digest with a candidate's. worse is how far the
// candidate's median moved in the bad direction, as a share of the baseline
// median. A move beyond the bound that also clears the run-to-run spread is
// a regression; a spread wider than the bound cannot tell either way.
func judge(def metricDef, base, cand summary) (verdict string, worse float64) {
	if base.Median != 0 {
		worse = (cand.Median - base.Median) / base.Median
		if def.Better == "higher" {
			worse = -worse
		}
	}
	spread := max(base.spread(), cand.spread())
	switch {
	case worse > def.Bound && worse > spread:
		return verdictRegressed, worse
	case spread > def.Bound:
		return verdictUnresolved, worse
	}
	return verdictOK, worse
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload × end-to-end metric) present in
// both files and returns 1 if any regressed or a workload's output was wrong.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	cand, err := readResults(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	return compareResults(base, cand, stdout)
}

func compareResults(base, cand *resultFile, w io.Writer) int {
	fmt.Fprintf(w, "base: nproc=%d %s commit=%s   candidate: nproc=%d %s commit=%s\n",
		base.Env.NProc, base.Env.GoVersion, base.Env.Commit, cand.Env.NProc, cand.Env.GoVersion, cand.Env.Commit)
	fmt.Fprintf(w, "%-12s %-13s %-5s %12s %22s %12s %22s %6s %8s  %s\n", "workload", "metric", "unit",
		"base", "[q1, q3]", "candidate", "[q1, q3]", "bound", "worse", "verdict")
	candidates := map[string]workloadResult{}
	for _, wr := range cand.Workloads {
		candidates[wr.Name] = wr
	}
	status, rows := 0, 0
	for _, b := range base.Workloads {
		c, ok := candidates[b.Name]
		if !ok || b.EndToEnd == nil || c.EndToEnd == nil {
			continue
		}
		if !b.Correct || !c.Correct {
			fmt.Fprintf(w, "%-12s output was not correct (base %v, candidate %v)\n", b.Name, b.Correct, c.Correct)
			status = 1
		}
		for _, def := range endToEnd {
			bs, cs := b.EndToEnd[def.Name], c.EndToEnd[def.Name]
			verdict, worse := judge(def, bs, cs)
			if verdict == verdictRegressed {
				status = 1
			}
			rows++
			fmt.Fprintf(w, "%-12s %-13s %-5s %12.6g %22s %12.6g %22s %6.2f %+8.4f  %s\n", b.Name, def.Name, def.Unit,
				bs.Median, fmt.Sprintf("[%.5g, %.5g]", bs.Q1, bs.Q3),
				cs.Median, fmt.Sprintf("[%.5g, %.5g]", cs.Q1, cs.Q3), def.Bound, worse, verdict)
		}
	}
	if rows == 0 {
		fmt.Fprintln(w, "no workload with end-to-end results in both files")
		return 2
	}
	return status
}
