package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"plos/internal/transport"
)

// TestQuickSmoke runs every workload at smoke size through the same command
// path the driver uses, plus one traced run, and holds the result line to the
// contract: exactly the manifest's metric names, every value finite.
func TestQuickSmoke(t *testing.T) {
	check := func(args []string, defs []metricDef, wantWorkloads int) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
		}
		seen := 0
		for _, raw := range strings.Split(stdout.String(), "\n") {
			if !strings.HasPrefix(raw, "{") {
				continue
			}
			seen++
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(raw), &line); err != nil {
				t.Fatalf("result line: %v", err)
			}
			if len(line) != 4 {
				t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", line)
			}
			var res resultLine
			if err := json.Unmarshal([]byte(raw), &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%d metrics on the result line, manifest lists %d", len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s: %+v (present %v)", d.Name, v, ok)
				}
			}
		}
		if seen != wantWorkloads {
			t.Errorf("%d result lines, want %d", seen, wantWorkloads)
		}
	}
	check([]string{"-quick", "-workload", "all", "-seed", "3"}, endToEnd, len(specs))
	check([]string{"--quick", "--workload", "shard-plane", "--seed", "3", "--trace", "1"}, perLayer, 1)
}

// TestInProcessWorkloadsHaveNoWire pins the bypass property: the in-process
// trainers move no byte and record no send or receive span.
func TestInProcessWorkloadsHaveNoWire(t *testing.T) {
	for _, name := range []string{"central-cut", "dist-inproc"} {
		s, _ := specByName(name)
		r := &runner{spec: s.quick(), opt: options{seed: 5, quick: true}}
		rec := &recorder{}
		_, out, err := r.once(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.bytes != 0 || len(rec.conns) != 0 {
			t.Errorf("%s: %d bytes, %d wrapped conns", name, out.bytes, len(rec.conns))
		}
		for _, sp := range rec.tree(1, 0, out.wall, false) {
			if sp.Name != "run" && sp.Name != "join" {
				t.Errorf("%s: unexpected span %s", name, sp.Name)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the catalogue in this package and to
// the limits of the driver's contract.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buildManifest()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate with: go run ./bench -manifest > BENCHMARK.json")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || len(raw) > 64<<10 {
		t.Errorf("%d top-level keys (want 6), %d bytes (limit 64 KiB)", len(keys), len(raw))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", e.Name, e.Unit, e.Better)
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("metric %s: needs a bound in (0, 0.25]", e.Name)
		}
		hasSetup = hasSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, p := range m.PerLayer {
		name(p.Name)
		if !unitRE.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") || p.Bound != nil {
			t.Errorf("metric %s: unit %q better %q bound %v", p.Name, p.Unit, p.Better, p.Bound)
		}
	}

	// Every per-layer metric says which end-to-end metric it should move,
	// and on which workload.
	for _, d := range perLayer {
		movesMetric := false
		for _, name := range printedE2E {
			movesMetric = movesMetric || strings.Contains(d.Moves, name)
		}
		movesWorkload := strings.Contains(d.Moves, "every workload") || strings.Contains(d.Moves, "wire-*")
		for _, s := range specs {
			movesWorkload = movesWorkload || strings.Contains(d.Moves, s.Name)
		}
		if !strings.Contains("PSCR", d.Kind) || d.Kind == "" || !movesMetric || !movesWorkload {
			t.Errorf("per-layer metric %s: kind %q, moves %q must name an end-to-end metric and a workload", d.Name, d.Kind, d.Moves)
		}
	}
	if _, err := loadExpectations(); err != nil {
		t.Error(err)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one inside", []interval{{120, 150}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {140, 160}}, 50},
		{"sticking out is clipped", []interval{{50, 120}, {190, 400}}, 70},
		{"outside is ignored", []interval{{0, 100}, {200, 300}}, 100},
		{"nested and unordered", []interval{{150, 160}, {110, 190}}, 20},
		{"fully covered", []interval{{0, 300}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{3, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("n=%d: highest percentile with ten samples beyond it is p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

// TestSummarize checks the quartile rule against values computed with
// Python's statistics.quantiles(values, n=4).
func TestSummarize(t *testing.T) {
	s := summarize([]float64{10, 1, 4, 3, 7, 8, 2, 9, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("got %+v, want quartiles 2.75, 5.5, 8.25 of 10", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %g, want 1", got)
	}
	s = summarize([]float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("got %+v, want 1, 2, 3", s)
	}
	// The result line takes a timing at the decile on its good side; of
	// three samples that is the best one.
	for _, tc := range []struct {
		def  metricDef
		want float64
	}{
		{metricDef{Better: "lower", Quiet: true}, 1},
		{metricDef{Better: "higher", Quiet: true}, 3},
		{metricDef{Better: "lower"}, 2},
		{metricDef{Better: "higher"}, 2},
	} {
		if got := s.reported(tc.def); got != tc.want {
			t.Errorf("reported(%+v) = %g, want %g", tc.def, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "train_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "solves_per_s", Better: "higher", Bound: 0.10}
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 10} }
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, cand summary
		want       string
	}{
		{"within bound", lower, tight(1), tight(1.05), verdictOK},
		{"slower beyond bound", lower, tight(1), tight(1.2), verdictRegressed},
		{"faster is never a regression", lower, tight(1), tight(0.5), verdictOK},
		{"higher-is-better dropped", higher, tight(100), tight(80), verdictRegressed},
		{"higher-is-better rose", higher, tight(100), tight(130), verdictOK},
		{"spread wider than bound", lower, wide(1), wide(1.05), verdictUnresolved},
		{"move clears a wide spread", lower, wide(1), wide(1.5), verdictRegressed},
	} {
		if got, _ := judge(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	base := &resultFile{Workloads: []workloadResult{{Name: "w", Correct: true, EndToEnd: map[string]summary{}}}}
	cand := &resultFile{Workloads: []workloadResult{{Name: "w", Correct: true, EndToEnd: map[string]summary{}}}}
	for _, d := range endToEnd {
		base.Workloads[0].EndToEnd[d.Name] = tight(1)
		cand.Workloads[0].EndToEnd[d.Name] = tight(1)
	}
	var out bytes.Buffer
	if code := compareResults(base, cand, &out); code != 0 {
		t.Errorf("identical results compare with exit %d:\n%s", code, out.String())
	}
	cand.Workloads[0].EndToEnd["train_s"] = tight(2)
	out.Reset()
	if code := compareResults(base, cand, &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("doubled train_s compares with exit %d:\n%s", code, out.String())
	}
}

// TestSpanTree builds the tree of a hand-written two-round lockstep exchange
// on one link and checks the derived spans and their parents.
func TestSpanTree(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	op := func(m transport.MsgType, start, end int) rawOp {
		return rawOp{msg: m, start: us(start), end: us(end)}
	}
	rec := &recorder{}
	server := &spanConn{rec: rec, link: 0, side: sideServer,
		recvs: []rawOp{op(transport.MsgHello, 0, 10), op(transport.MsgUpdate, 24, 60), op(transport.MsgUpdate, 74, 100)},
		sends: []rawOp{op(transport.MsgHello, 10, 12), op(transport.MsgStartRound, 18, 20), op(transport.MsgParams, 20, 24),
			op(transport.MsgParams, 70, 74), op(transport.MsgDone, 110, 112)}}
	device := &spanConn{rec: rec, link: 0, side: sideDevice,
		sends: []rawOp{op(transport.MsgHello, 0, 2), op(transport.MsgUpdate, 55, 58), op(transport.MsgUpdate, 95, 98)},
		recvs: []rawOp{op(transport.MsgHello, 2, 13), op(transport.MsgStartRound, 13, 21), op(transport.MsgParams, 21, 25),
			op(transport.MsgParams, 58, 75), op(transport.MsgDone, 98, 113)}}
	rec.conns = []*spanConn{server, device}
	spans := rec.tree(1, 0, us(115), false)

	byName := map[string][]span{}
	byID := map[int]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
	}
	want := map[string][][2]int{ // name → [start, end] in µs, in order
		"run":          {{0, 115}},
		"join":         {{0, 25}},
		"round":        {{20, 70}, {70, 110}},
		"gather":       {{20, 60}, {70, 100}},
		"fold":         {{60, 70}, {100, 110}},
		"device.solve": {{25, 55}, {75, 95}},
	}
	for name, ivs := range want {
		got := byName[name]
		if len(got) != len(ivs) {
			t.Errorf("%s: %d spans, want %d", name, len(got), len(ivs))
			continue
		}
		for i, iv := range ivs {
			if got[i].Start != int64(us(iv[0])) || got[i].End != int64(us(iv[1])) {
				t.Errorf("%s[%d]: [%d, %d] ns, want [%d, %d] µs", name, i, got[i].Start, got[i].End, iv[0], iv[1])
			}
		}
	}
	parentName := func(s span) string { return byID[s.Parent].Name }
	for _, s := range byName["device.solve"] {
		if parentName(s) != "gather" {
			t.Errorf("device.solve hangs off %q, want gather", parentName(s))
		}
	}
	if p := parentName(byName["server.send"][1]); p != "gather" {
		t.Errorf("start-round send hangs off %q, want the gather of its iteration", p)
	}
	if p := parentName(byName["server.recv"][0]); p != "join" {
		t.Errorf("hello recv hangs off %q, want join", p)
	}
	// Server self time of round 0 is its fold: 10 µs of 50.
	rows := layerTable(spans)
	for _, r := range rows {
		if r.Name == "fold" && (r.Self != us(20) || r.Count != 2) {
			t.Errorf("fold row: self %v count %d, want 20µs over 2", r.Self, r.Count)
		}
		if r.Name == "round" && r.Self != 0 {
			t.Errorf("round self time %v, want 0: gather and fold cover it", r.Self)
		}
	}
}
