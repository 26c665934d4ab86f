package protocol

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"plos/internal/core"
	"plos/internal/obs"
	"plos/internal/transport"
)

// flightConfig is sweepConfig with a flight recorder attached; returns the
// config, the registry, and the JSONL buffer.
func flightConfig() (ServerConfig, *obs.Registry, *strings.Builder) {
	cfg := sweepConfig()
	reg, buf := flightRegistry()
	cfg.Core.Obs = reg
	return cfg, reg, buf
}

// flightRegistry is a registry streaming its flight records into the
// returned buffer. cccp_converged starts at a sentinel no run ever sets, so
// a trainer that leaves the gauge alone is caught.
func flightRegistry() (*obs.Registry, *strings.Builder) {
	reg := obs.NewRegistry()
	buf := new(strings.Builder)
	reg.SetFlightRecorder(obs.NewFlightRecorder(buf, 0))
	reg.Gauge(obs.MetricCCCPConverged, "").Set(-1)
	return reg, buf
}

// TestWireConfigRequestsTelemetry: the telemetry piggyback is requested iff
// the server observer has a flight recorder — a plain observer (or none)
// keeps the wire bytes identical to the pre-telemetry protocol.
func TestWireConfigRequestsTelemetry(t *testing.T) {
	plain := sweepConfig()
	if wireConfig(plain.Core, plain.Dist).Telemetry {
		t.Error("telemetry requested without an observer")
	}
	plain.Core.Obs = obs.NewRegistry()
	if wireConfig(plain.Core, plain.Dist).Telemetry {
		t.Error("telemetry requested by a flight-less observer")
	}
	withFlight, _, _ := flightConfig()
	if !wireConfig(withFlight.Core, withFlight.Dist).Telemetry {
		t.Error("telemetry not requested with a flight recorder attached")
	}
}

// TestServerFlightRecords: a clean 4-device run must leave a full fleet
// trace — run framing, per-round consensus records, and one device-round
// per fresh telemetry reply.
func TestServerFlightRecords(t *testing.T) {
	users, _ := makeUsers(31, 4)
	cfg, _, buf := flightConfig()
	res, err, _, clientErrs := runPipesFT(t, users, cfg, nil, nil)
	if err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	for i, cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client %d: %v", i, cerr)
		}
	}
	if res == nil {
		t.Fatal("nil result")
	}
	out := buf.String()
	for _, want := range []string{
		`"rec":"run-start","trainer":"server","users":4`,
		`"rec":"cccp-start"`,
		`"rec":"admm-round"`,
		`"rec":"cccp-iteration"`,
		`"sign_flips":-1`, // the wire server cannot see device signs
		`"rec":"run-end"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("flight stream missing %s", want)
		}
	}
	for u := 0; u < 4; u++ {
		if !strings.Contains(out, `"rec":"device-round","round":0,"user":`+string(rune('0'+u))) {
			t.Errorf("no device-round record for user %d in round 0", u)
		}
	}
	// Telemetry is cumulative device traffic: bytes must be non-zero.
	if strings.Contains(out, `"bytes":0,`) {
		t.Error("device-round carries zero traffic bytes")
	}
}

// TestTelemetryBitIdentical: requesting the telemetry piggyback (which a
// flight-recording coordinator does) must not move a single bit of the
// trained model — telemetry carries only durations and counts, never
// anything the solver reads. Runs over pipes with fixed slot order, the
// deterministic harness (TCP accept order permutes federated-init and
// consensus summation at ULP level, so wire bit-compares live here).
func TestTelemetryBitIdentical(t *testing.T) {
	users, _ := makeUsers(34, 4)
	plain, err, _, plainErrs := runPipesFT(t, users, sweepConfig(), nil, nil)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	cfg, _, buf := flightConfig()
	tel, err, _, telErrs := runPipesFT(t, users, cfg, nil, nil)
	if err != nil {
		t.Fatalf("telemetry run: %v", err)
	}
	for i := range users {
		if plainErrs[i] != nil || telErrs[i] != nil {
			t.Fatalf("client %d: plain err %v, telemetry err %v", i, plainErrs[i], telErrs[i])
		}
		if !vecIdentical(plain.Model.W[i], tel.Model.W[i]) {
			t.Errorf("user %d hyperplane differs with telemetry on", i)
		}
	}
	if !vecIdentical(plain.Model.W0, tel.Model.W0) {
		t.Errorf("global hyperplane differs with telemetry on:\nplain %v\n  tel %v",
			plain.Model.W0, tel.Model.W0)
	}
	// The run must actually have exercised the piggyback path.
	if !strings.Contains(buf.String(), `"rec":"device-round"`) {
		t.Error("no device-round records: telemetry was not requested or merged")
	}
}

// TestFlightStaleAndDropRecords: a device whose connection dies mid-run under
// Resume is carried stale (stale-reuse records), then permanently dropped
// (transient + permanent device-drop records, one drop-cause count).
func TestFlightStaleAndDropRecords(t *testing.T) {
	users, _ := makeUsers(32, 4)
	cfg, reg, buf := flightConfig()
	cfg.FT = FTConfig{Resume: true, MaxStale: 2}
	const victim = 1
	wrapClient := func(i int, c transport.Conn) transport.Conn {
		if i == victim {
			return transport.FailAfter(c, 6)
		}
		return c
	}
	res, err, _, _ := runPipesFT(t, users, cfg, nil, wrapClient)
	if err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	if !res.Dropped[victim] {
		t.Fatal("victim not dropped")
	}
	out := buf.String()
	if !strings.Contains(out, `"rec":"stale-reuse","round":`) ||
		!strings.Contains(out, `"user":1,"stale":1}`) {
		t.Error("no stale-reuse record for the victim")
	}
	if !strings.Contains(out, `"rec":"device-drop","user":1,"cause":`) {
		t.Error("no device-drop record for the victim")
	}
	if !strings.Contains(out, `"permanent":false`) {
		t.Error("missing transient device-drop record (first connection failure)")
	}
	if !strings.Contains(out, `"permanent":true`) {
		t.Error("missing permanent device-drop record")
	}
	if got := reg.CounterValue(obs.MetricProtocolDeviceDrops); got != 1 {
		t.Errorf("%s = %d, want 1 (one first-failure per device)", obs.MetricProtocolDeviceDrops, got)
	}
}

// TestFlightQuorumRecord: a drop that breaches the quorum threshold must
// leave a quorum record before the run aborts.
func TestFlightQuorumRecord(t *testing.T) {
	users, _ := makeUsers(33, 4)
	cfg, _, buf := flightConfig()
	cfg.FT.Quorum = 0.9 // ceil(3.6) = 4: any death aborts
	wrapClient := func(i int, c transport.Conn) transport.Conn {
		if i == 2 {
			return transport.FailAfter(c, 6)
		}
		return c
	}
	_, err, _, _ := runPipesFT(t, users, cfg, nil, wrapClient)
	if err == nil {
		t.Fatal("expected quorum abort")
	}
	if !strings.Contains(buf.String(), `"rec":"quorum","active":3,"need":4`) {
		t.Errorf("no quorum record in flight stream:\n%s", buf.String())
	}
}

// TestRunShellAllTrainers: every trainer opens, steps and closes its CCCP run
// through the one shell (core.Run), so every flight stream frames its N
// rounds the same way — run-start (cccp-start … cccp-iteration)×N run-end —
// and the round counter, the run-end record, the cccp_converged gauge and
// TrainInfo all tell the same story.
func TestRunShellAllTrainers(t *testing.T) {
	users, _ := makeUsers(35, 4)
	coreCfg := sweepConfig().Core
	type shellRun struct {
		trainer string
		info    core.TrainInfo
		reg     *obs.Registry
		out     string
	}
	var runs []shellRun
	inProcess := func(trainer string, train func(cfg core.Config) (core.TrainInfo, error)) {
		t.Helper()
		cfg := coreCfg
		reg, buf := flightRegistry()
		cfg.Obs = reg
		info, err := train(cfg)
		if err != nil {
			t.Fatalf("%s: %v", trainer, err)
		}
		runs = append(runs, shellRun{trainer, info, reg, buf.String()})
	}
	inProcess("centralized", func(cfg core.Config) (core.TrainInfo, error) {
		_, info, err := core.TrainCentralized(users, cfg)
		return info, err
	})
	inProcess("distributed", func(cfg core.Config) (core.TrainInfo, error) {
		_, info, err := core.TrainDistributed(users, cfg, sweepConfig().Dist)
		return info, err
	})
	inProcess("async", func(cfg core.Config) (core.TrainInfo, error) {
		_, info, err := core.TrainAsync(users, cfg, core.AsyncConfig{MaxUpdatesPerRound: 16})
		return info, err
	})
	for _, async := range []bool{false, true} {
		cfg, reg, buf := flightConfig()
		cfg.Async = async
		res, err, _, clientErrs := runPipesFT(t, users, cfg, nil, nil)
		if err != nil {
			t.Fatalf("RunServer (async %v): %v", async, err)
		}
		for i, cerr := range clientErrs {
			if cerr != nil {
				t.Fatalf("RunServer (async %v): client %d: %v", async, i, cerr)
			}
		}
		runs = append(runs, shellRun{"server", res.Info, reg, buf.String()})
	}
	sc := sweepConfig()
	aggReg, aggBuf := flightRegistry()
	sc.Core.Obs = aggReg
	shardRegs := make([]*obs.Registry, 2)
	shardBufs := make([]*strings.Builder, 2)
	out := runSharded(t, users, [][]int{{0, 1}, {2, 3}}, AggConfig{Core: sc.Core, Dist: sc.Dist},
		func(s int) ShardConfig {
			shardRegs[s], shardBufs[s] = flightRegistry()
			return ShardConfig{Shard: s, Core: core.Config{Obs: shardRegs[s]}}
		}, nil, nil)
	if out.aggErr != nil {
		t.Fatalf("RunAggregator: %v", out.aggErr)
	}
	runs = append(runs, shellRun{"agg", out.agg.Info, aggReg, aggBuf.String()})
	for s, res := range out.shards {
		if out.shardErrs[s] != nil {
			t.Fatalf("RunShard %d: %v", s, out.shardErrs[s])
		}
		runs = append(runs, shellRun{"shard", res.Info, shardRegs[s], shardBufs[s].String()})
	}

	for _, run := range runs {
		n := run.info.CCCPIterations
		if n == 0 {
			t.Errorf("%s: no CCCP rounds ran", run.trainer)
		}
		// The shell's lines, in stream order; everything else (cut rounds,
		// ADMM rounds, device telemetry) nests between them.
		var frame []string
		var end struct {
			Converged bool `json:"converged"`
			Rounds    int  `json:"rounds"`
		}
		for _, line := range strings.Split(strings.TrimSpace(run.out), "\n") {
			if line == "" {
				continue // a trainer that recorded nothing fails the framing check below
			}
			var rec struct {
				Rec     string `json:"rec"`
				Trainer string `json:"trainer"`
				Round   int    `json:"round"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("%s: bad flight line %q: %v", run.trainer, line, err)
			}
			switch rec.Rec {
			case "run-start":
				frame = append(frame, rec.Rec+" "+rec.Trainer)
			case "cccp-start", "cccp-iteration":
				frame = append(frame, rec.Rec+" "+strconv.Itoa(rec.Round))
			case "run-end":
				frame = append(frame, rec.Rec)
				if err := json.Unmarshal([]byte(line), &end); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := []string{"run-start " + run.trainer}
		for k := 0; k < n; k++ {
			want = append(want, "cccp-start "+strconv.Itoa(k), "cccp-iteration "+strconv.Itoa(k))
		}
		want = append(want, "run-end")
		if got, want := strings.Join(frame, ", "), strings.Join(want, ", "); got != want {
			t.Errorf("%s: run framing\n got %s\nwant %s", run.trainer, got, want)
		}
		if end.Rounds != n || end.Converged != run.info.CCCPConverged {
			t.Errorf("%s: run-end says (%d rounds, converged %v), TrainInfo (%d, %v)",
				run.trainer, end.Rounds, end.Converged, n, run.info.CCCPConverged)
		}
		converged := 0.0
		if run.info.CCCPConverged {
			converged = 1
		}
		if got := run.reg.Gauge(obs.MetricCCCPConverged, "").Value(); got != converged {
			t.Errorf("%s: %s = %g, TrainInfo.CCCPConverged = %v", run.trainer, obs.MetricCCCPConverged, got, run.info.CCCPConverged)
		}
		if got := run.reg.CounterValue(obs.MetricCCCPIterations); got != int64(n) {
			t.Errorf("%s: %s = %d, want %d", run.trainer, obs.MetricCCCPIterations, got, n)
		}
		if got := run.reg.CounterValue(obs.MetricTrainRuns); got != 1 {
			t.Errorf("%s: %s = %d, want 1", run.trainer, obs.MetricTrainRuns, got)
		}
	}
}
