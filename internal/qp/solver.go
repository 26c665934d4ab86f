package qp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"plos/internal/mat"
	"plos/internal/obs"
)

// Problem is the structured QP
//
//	minimize   f(x) = ½ xᵀ G x − cᵀ x
//	subject to x >= 0 and, per group g, Σ_{i∈g} x_i <= budget_g.
//
// G must be symmetric positive semi-definite (it is a Gram matrix in every
// use inside this repository). FISTA reads G by rows alone: the product it
// steps along is Gᵀ·y, row j of G scaled by y_j, which is G·y for symmetric
// G. A G symmetric only up to rounding, its mirrored cells computed apart,
// solves to the optimum up to that rounding; a G with a sizeable
// antisymmetric part is outside the contract.
//
// The PLOS dual (paper Eq. 16) is this problem with one group per user and
// budget T/(2λ); maximizing the paper's dual is minimizing f.
type Problem struct {
	G      *mat.Matrix
	C      mat.Vector
	Groups GroupSpec
}

// Options tunes the projected-gradient solver. The zero value is usable:
// Defaults() is applied to every unset field.
type Options struct {
	// MaxIter bounds the number of accelerated iterations (default 2000).
	MaxIter int
	// Tol is the convergence threshold on the projected-gradient residual
	// ||x − Π(x − ∇f(x)/L)||∞ · L (default 1e-8).
	Tol float64
	// X0 optionally warm-starts the solve; it is projected to feasibility
	// first. If nil the solver starts from the origin. A mis-sized X0 is
	// an input error (ErrWarmStartSize), like every other malformed input.
	X0 mat.Vector
	// LipschitzBound optionally supplies an upper bound on the largest
	// eigenvalue of G (the gradient's Lipschitz constant). When positive
	// it is used directly; otherwise the solver computes the Gershgorin
	// bound itself with an O(n²) scan of G. Callers that maintain the
	// bound incrementally across related solves (GramCache) pass it here
	// to keep per-solve setup proportional to what changed.
	LipschitzBound float64
	// Scratch, when non-nil, provides the reusable iterate and projection
	// buffers, so a solve allocates only what it returns (the solution
	// and, if capped, the error). One scratch must not be shared between
	// concurrent solves.
	Scratch *Scratch
	// Obs, when non-nil, receives solve counts, cumulative iteration
	// counts and a duration histogram. Purely observational: it never
	// changes an iterate or the iteration order.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 2000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Info reports solver diagnostics.
type Info struct {
	Iterations int
	Objective  float64 // f(x) at the returned point
	Residual   float64 // final projected-gradient residual
	Converged  bool
}

// ErrMaxIterations matches (errors.Is) the error Solve returns when it stops
// on its iteration budget before meeting Tol. The best iterate found is
// still returned alongside the error, so callers in outer loops (cutting
// plane, ADMM) may choose to proceed with it.
var ErrMaxIterations = errors.New("qp: maximum iterations reached")

// maxIterError is the ErrMaxIterations error of one capped solve. Outer loops
// cap almost every solve and drop the error after errors.Is, so the text is
// only formatted if somebody reads it.
type maxIterError struct {
	iterations    int
	residual, tol float64
}

func (e *maxIterError) Error() string {
	return fmt.Sprintf("%v after %d iterations (residual %.3g > tol %.3g)",
		ErrMaxIterations, e.iterations, e.residual, e.tol)
}

func (e *maxIterError) Unwrap() error { return ErrMaxIterations }

// ErrWarmStartSize is wrapped into the error returned when Options.X0 does
// not match the problem dimension — a stale warm start (e.g. resumed from
// an old checkpoint) fails the solve instead of crashing the process.
var ErrWarmStartSize = errors.New("qp: warm start length mismatch")

// Solve minimizes the problem with FISTA (accelerated projected gradient)
// using the Gershgorin bound on G as the Lipschitz constant, with adaptive
// restart on momentum reversal. For the PSD Gram matrices PLOS produces,
// this converges linearly in practice; exact projection keeps every iterate
// feasible, so even an early stop yields a usable dual point.
//
// The returned vector is the caller's. A solve that stops on MaxIter returns
// its iterate together with an error matching ErrMaxIterations.
func Solve(p *Problem, opts Options) (mat.Vector, Info, error) {
	s := opts.Scratch
	if s == nil {
		s = new(Scratch)
	}
	x, info, err := s.Solve(p, opts)
	if err != nil {
		return nil, info, err
	}
	if opts.Scratch != nil {
		x = x.Clone() // the scratch's buffers are reused by its next solve
	}
	if !info.Converged {
		return x, info, &maxIterError{info.Iterations, info.Residual, opts.withDefaults().Tol}
	}
	return x, info, nil
}

// Solve is the package-level Solve run on s (opts.Scratch is ignored), for
// callers that consume the solution before their next solve: the returned
// vector is s's own buffer, valid until s solves again, and a solve that
// stops on MaxIter is reported by Info.Converged alone — the error is non-nil
// only for malformed input. With both departures a solve allocates nothing
// once s has grown to the problem size.
func (s *Scratch) Solve(p *Problem, opts Options) (mat.Vector, Info, error) {
	o := opts.withDefaults()
	var start time.Time
	if o.Obs != nil {
		start = time.Now()
	}
	n := len(p.C)
	if p.G.Rows != n || p.G.Cols != n {
		return nil, Info{}, fmt.Errorf("qp: Solve: G is %dx%d but c has length %d", p.G.Rows, p.G.Cols, n)
	}
	s.grow(n)
	if err := s.proj.validate(&p.Groups); err != nil {
		return nil, Info{}, err
	}
	if o.X0 != nil && len(o.X0) != n {
		return nil, Info{}, fmt.Errorf("qp: Solve: %w: got %d, want %d", ErrWarmStartSize, len(o.X0), n)
	}
	if n == 0 {
		return mat.Vector{}, Info{Converged: true}, nil
	}

	lip := o.LipschitzBound
	if lip <= 0 {
		lip = mat.MaxEigenvalueUpperBound(p.G)
	}
	if lip < 1e-12 {
		lip = 1e-12 // G ≈ 0: objective is linear; step size is arbitrary but finite
	}
	stepSize := 1 / lip

	x, y, grad, xNext, c := s.x, s.y, s.grad, s.xNext, p.C
	k := 0 // the length of y's support, listed in s.supp and s.vals
	if o.X0 != nil {
		copy(x, o.X0)
		sum, m := positives(x)
		k, _, _, _, _ = s.project(&p.Groups, x, sum, m, nil, nil, 0, 0)
	} else {
		x.Zero()
	}
	copy(y, x) // extrapolated point
	tMom := 1.0

	info := Info{}
	for it := 0; it < o.MaxIter; it++ {
		info.Iterations = it + 1
		s.mulVec(p.G, k) // grad = G y

		// xNext = y − step·(grad − c), its positives summed for the projection.
		sum, m := step(xNext, y, grad, c, -stepSize)
		// xNext = Π(xNext). The residual is measured at the candidate step
		// from y, and y is extrapolated as if the momentum held.
		tNext := (1 + math.Sqrt(1+float64(4*tMom*tMom))) / 2
		beta := (tMom - 1) / tNext
		var dot float64
		k, info.Residual, dot, sum, m = s.project(&p.Groups, xNext, sum, m, y, x, lip, beta)

		// Momentum with adaptive restart: if the update direction opposes
		// the previous momentum, reset (O'Donoghue & Candès restart rule).
		if dot > 0 {
			tMom = 1
			copy(y, xNext) // s.supp lists xNext's support
		} else {
			k, _, _, _, _ = s.project(&p.Groups, y, sum, m, nil, nil, 0, 0)
			tMom = tNext
		}
		x, xNext = xNext, x

		if info.Residual <= o.Tol {
			info.Converged = true
			break
		}
	}
	if r := o.Obs; r != nil {
		r.Counter(obs.MetricQPSolves, "").Inc()
		r.Counter(obs.MetricQPIterations, "").Add(int64(info.Iterations))
		r.Histogram(obs.MetricQPSolveSeconds, "").Observe(time.Since(start).Seconds())
	}
	// f(x) via the grad buffer — the same arithmetic as Objective without
	// its allocation.
	p.G.MulVecTo(grad, x)
	info.Objective = float64(0.5*x.Dot(grad)) - p.C.Dot(x)
	return x, info, nil
}

// Objective evaluates f(x) = ½xᵀGx − cᵀx.
func Objective(p *Problem, x mat.Vector) float64 {
	gx := p.G.MulVec(x)
	return float64(0.5*x.Dot(gx)) - p.C.Dot(x)
}
