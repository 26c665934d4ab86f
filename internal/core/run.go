package core

import (
	"errors"
	"time"

	"plos/internal/obs"
	"plos/internal/optimize"
)

// Run is the shell of one training run. The paper's Algorithm 1 and
// Algorithm 2 (and the kernelized, asynchronous and wire variants) are the
// same CCCP outer loop around different inner solvers; Run is that loop's
// bookkeeping, written once: the run-start / cccp-start / cccp-iteration /
// run-end flight records, the run, round and objective metrics, the
// cccp_converged gauge and the CCCP fields of TrainInfo. Every trainer opens
// one with BeginRun and drives it with CCCP; a shard, whose rounds are
// decided by its aggregator, calls the same BeginRound / EndRound / End
// pieces as the decisions arrive.
//
// With a nil registry every method is a nil check; the clock is read only
// when a flight recorder will carry the duration.
type Run struct {
	obs   *obs.Registry
	start time.Time // when the open round began; set only while flight records are on
}

// BeginRun opens a run of the named trainer over a population of users.
func BeginRun(r *obs.Registry, trainer string, users int) *Run {
	r.Counter(obs.MetricTrainRuns, "").Inc()
	if r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordRunStart, Trainer: trainer, Users: users})
	}
	return &Run{obs: r}
}

// BeginRound opens CCCP round `round`.
func (run *Run) BeginRound(round int) {
	if r := run.obs; r.FlightEnabled() {
		run.start = time.Now()
		r.FlightRecord(obs.Record{Kind: obs.RecordCCCPStart, Round: round})
	}
}

// EndRound closes the open round with its objective and the number of
// effective labels its linearization refresh flipped (-1 when unknown: above
// the wire each device freezes its own signs, and the per-device flips arrive
// in the device-round records instead).
func (run *Run) EndRound(round int, obj float64, flips int) {
	r := run.obs
	if r == nil {
		return
	}
	r.Counter(obs.MetricCCCPIterations, "").Inc()
	r.Gauge(obs.MetricTrainObjective, "").Set(obj)
	if r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordCCCPIteration, Round: round,
			Objective: obj, SignFlips: flips, Dur: time.Since(run.start)})
	}
}

// CCCP drives the outer loop to its end: each round is BeginRound, step,
// EndRound, under the stopping rule of optimize.CCCP with cfg's tolerance
// and round cap (prior and clean as documented there), and a finished loop
// is closed with End. A non-monotone step with an inexact inner solver is a
// soft failure — the run ends on the iterate reached; any other error is
// returned with the run left open (no run-end: the run did not end, it
// failed). info receives the CCCP outcome.
func (run *Run) CCCP(cfg Config, prior []float64, clean func(round int) bool, info *TrainInfo,
	step func(round int) (obj float64, flips int, err error)) error {
	res, err := optimize.CCCP(func(round int) (float64, error) {
		run.BeginRound(round)
		obj, flips, err := step(round)
		if err != nil {
			return 0, err
		}
		run.EndRound(round, obj, flips)
		return obj, nil
	}, cfg.CCCPTol, cfg.MaxCCCPIter, prior, clean)
	if err != nil && !errors.Is(err, optimize.ErrNotDescending) {
		return err
	}
	info.CCCPIterations = res.Iterations
	info.CCCPConverged = res.Converged
	info.Objective = res.Objective
	info.ObjectiveHistory = res.History
	run.End(info)
	return nil
}

// End closes a run whose CCCP outcome is in info (CCCP put it there; a shard
// copies it off the aggregator's final decision): the flight stream gets its
// run-end and cccp_converged reports this run.
func (run *Run) End(info *TrainInfo) {
	r := run.obs
	if r == nil {
		return
	}
	if r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordRunEnd, Converged: info.CCCPConverged,
			Objective: info.Objective, Round: info.CCCPIterations})
	}
	converged := 0.0
	if info.CCCPConverged {
		converged = 1
	}
	r.Gauge(obs.MetricCCCPConverged, "").Set(converged)
}
