package admm

import (
	"errors"
	"fmt"
	"math"
	"time"

	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/parallel"
	"plos/internal/shard"
)

// ZProx computes the z-update: given sum = Σ_t (x_t + u_t) and the worker
// count, return argmin_z g(z) + (Tρ/2)||z − sum/T||². For g = 0 this is
// sum/T; distributed PLOS uses g(z) = ||z||², giving ρ·sum/(2 + Tρ).
type ZProx func(sum mat.Vector, workers int, rho float64) mat.Vector

// AverageZ is the ZProx for g(z) = 0: plain consensus averaging.
func AverageZ(sum mat.Vector, workers int, _ float64) mat.Vector {
	z := sum.Clone()
	z.Scale(1 / float64(workers))
	return z
}

// SquaredNormZ is the ZProx for g(z) = ||z||² (distributed PLOS, Eq. 23):
// z = ρ·sum/(2 + Tρ).
func SquaredNormZ(sum mat.Vector, workers int, rho float64) mat.Vector {
	z := sum.Clone()
	z.Scale(SquaredNormZScale(workers, rho))
	return z
}

// SquaredNormZScale is the factor SquaredNormZ scales the sum by; a caller
// that owns its sum scales it in place and has the same z.
func SquaredNormZScale(workers int, rho float64) float64 {
	return rho / (2 + float64(float64(workers)*rho))
}

// Consensus is the server-side ADMM state: the consensus variable z and the
// scaled dual u_t per worker.
type Consensus struct {
	Z   mat.Vector
	U   []mat.Vector
	Rho float64

	prox ZProx
	sum  mat.Vector // Σ(x_t + u_t), refilled by every Step
}

// NewConsensus creates the server state for `workers` workers over
// dim-dimensional variables. rho must be positive.
func NewConsensus(dim, workers int, rho float64, prox ZProx) (*Consensus, error) {
	if dim <= 0 || workers <= 0 {
		return nil, fmt.Errorf("admm: NewConsensus: need positive dim (%d) and workers (%d)", dim, workers)
	}
	if rho <= 0 {
		return nil, fmt.Errorf("admm: NewConsensus: rho must be positive, got %g", rho)
	}
	if prox == nil {
		prox = AverageZ
	}
	u := make([]mat.Vector, workers)
	for t := range u {
		u[t] = mat.NewVector(dim)
	}
	return &Consensus{Z: mat.NewVector(dim), U: u, Rho: rho, prox: prox, sum: mat.NewVector(dim)}, nil
}

// Residuals of one ADMM round, in the scaled form of paper Eq. (24).
type Residuals struct {
	// Dual: ρ·√(2T)·||z_{k+1} − z_k||.
	Dual float64
	// Primal: sqrt(Σ_t ||u_t^{k+1} − u_t^k||²).
	Primal float64
}

// Converged applies the paper's stopping rule with absolute tolerance
// epsAbs: dual ≤ √(2T)·εabs and primal ≤ √T·εabs.
func (r Residuals) Converged(workers int, epsAbs float64) bool {
	t := float64(workers)
	return r.Dual <= math.Sqrt(2*t)*epsAbs && r.Primal <= math.Sqrt(t)*epsAbs
}

// DualResidual is the Eq. (24) dual residual ρ·√(2T)·‖z_{k+1} − z_k‖ of a
// lockstep iteration over T workers.
func DualResidual(rho float64, workers int, zNew, z mat.Vector) float64 {
	return rho * math.Sqrt(2*float64(workers)) * mat.Dist2(zNew, z)
}

// Step consumes this round's worker variables x_t (len(xs) must equal the
// worker count), performs the z- and u-updates, and returns the residuals.
// It is one lockstep iteration over a single partition holding every worker:
// the partial arithmetic is the round engine's (shard.SumXUTo, shard.ApplyZ),
// so the in-process trainer and the wire planes run the same operations. The
// prox's result becomes Z; nothing else is allocated.
func (c *Consensus) Step(xs []mat.Vector) (Residuals, error) {
	if len(xs) != len(c.U) {
		return Residuals{}, fmt.Errorf("admm: Step: got %d worker updates, want %d", len(xs), len(c.U))
	}
	for t, x := range xs {
		if len(x) != len(c.Z) {
			return Residuals{}, fmt.Errorf("admm: Step: worker %d sent %d dims, want %d", t, len(x), len(c.Z))
		}
	}
	shard.SumXUTo(c.sum, xs, c.U)
	zNew := c.prox(c.sum, len(xs), c.Rho)
	res := Residuals{
		Dual:   DualResidual(c.Rho, len(xs), zNew, c.Z),
		Primal: math.Sqrt(shard.ApplyZ(xs, c.U, zNew)),
	}
	c.Z = zNew
	return res, nil
}

// XUpdater is one worker's local solve: given the current consensus z and
// its scaled dual u, return the new local variable x_t.
type XUpdater func(t int, z, u mat.Vector) (mat.Vector, error)

// Options for the in-process driver.
type Options struct {
	Rho     float64 // default 1 (paper §VI-E)
	EpsAbs  float64 // default 1e-3 (paper §VI-E)
	MaxIter int     // default 200
	// Workers bounds the concurrent local x-updates per round, mirroring
	// the phones computing simultaneously in the real deployment: 0 means
	// runtime.GOMAXPROCS(0), 1 is strictly sequential. Results are
	// identical for any value — the z- and u-updates fold the gathered
	// x_t in worker-index order regardless of solve completion order.
	Workers int
	// Obs, when non-nil, receives per-round counters, residual gauges, a
	// round-duration histogram and one admm-round flight record per round.
	// Purely observational — iterates are bit-identical with or without it.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Rho <= 0 {
		o.Rho = 1
	}
	if o.EpsAbs <= 0 {
		o.EpsAbs = 1e-3
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	return o
}

// RunInfo reports the outcome of Run.
type RunInfo struct {
	Iterations int
	Converged  bool
	Final      Residuals
	// Where the time went, by the clock read around every x-update and every
	// Step: SolveTime sums all x-updates (what the fleet computed),
	// SlowestSolveTime sums each iteration's slowest x-update (what a fleet
	// solving side by side would wait for), FoldTime sums the Steps (the
	// server's share).
	SolveTime, SlowestSolveTime, FoldTime time.Duration
}

// ErrMaxIterations is wrapped into Run's error when the residual rule is
// not met within MaxIter rounds. The state reached is still returned.
var ErrMaxIterations = errors.New("admm: maximum iterations reached")

// Run drives consensus ADMM in-process until the paper's residual stopping
// rule fires. It returns the final consensus state (z and the duals).
func Run(dim, workers int, update XUpdater, prox ZProx, opts Options) (*Consensus, RunInfo, error) {
	o := opts.withDefaults()
	cons, err := NewConsensus(dim, workers, o.Rho, prox)
	if err != nil {
		return nil, RunInfo{}, err
	}
	info := RunInfo{}
	xs := make([]mat.Vector, workers)
	solve := make([]time.Duration, workers)
	for iter := 0; iter < o.MaxIter; iter++ {
		info.Iterations = iter + 1
		roundStart := time.Now()
		// Jacobi fan-out: every worker's x-update depends only on the
		// frozen (z, u_t) of this round, so the solves run on the bounded
		// pool; xs is gathered by worker index and Step folds it in index
		// order, keeping the consensus algebra deterministic.
		if err := parallel.For(o.Workers, workers, func(t int) error {
			start := time.Now()
			x, e := update(t, cons.Z, cons.U[t])
			solve[t] = time.Since(start)
			if e != nil {
				return fmt.Errorf("admm: worker %d: %w", t, e)
			}
			xs[t] = x
			return nil
		}); err != nil {
			return cons, info, err
		}
		var slowest time.Duration
		for _, d := range solve {
			info.SolveTime += d
			slowest = max(slowest, d)
		}
		info.SlowestSolveTime += slowest
		foldStart := time.Now()
		res, err := cons.Step(xs)
		if err != nil {
			return cons, info, err
		}
		info.FoldTime += time.Since(foldStart)
		info.Final = res
		if r := o.Obs; r != nil {
			ObserveRound(r, iter, roundStart, res)
		}
		if res.Converged(workers, o.EpsAbs) {
			info.Converged = true
			return cons, info, nil
		}
	}
	return cons, info, fmt.Errorf("%w after %d rounds (dual %.3g, primal %.3g)",
		ErrMaxIterations, info.Iterations, info.Final.Dual, info.Final.Primal)
}

// ObserveRound records one consensus round into r: the round counter, the
// Eq. (24) residual gauges, and the round's duration — read off the clock
// once — into the histogram and the admm-round flight record. Shared by Run
// and the wire-protocol fold (internal/protocol's consensusFold).
func ObserveRound(r *obs.Registry, round int, start time.Time, res Residuals) {
	if r == nil {
		return
	}
	dur := time.Since(start)
	r.Counter(obs.MetricADMMRounds, "").Inc()
	r.Gauge(obs.MetricADMMPrimalResidual, "").Set(res.Primal)
	r.Gauge(obs.MetricADMMDualResidual, "").Set(res.Dual)
	r.Histogram(obs.MetricADMMRoundSeconds, "").Observe(dur.Seconds())
	if r.FlightEnabled() {
		r.FlightRecord(obs.Record{Kind: obs.RecordADMMRound, Round: round,
			Primal: res.Primal, Dual: res.Dual, Dur: dur})
	}
}
