package admm

import (
	"fmt"
	"math"

	"plos/internal/mat"
)

// StaleWeight maps a device's staleness — consensus rounds elapsed since
// the (z, u_t) snapshot its arriving solution was computed against — to a
// damping factor γ ∈ (0, 1] applied to the z-step of that fold. nil means
// undamped (γ = 1 always), which reproduces the in-process barrier fold
// bit-for-bit.
type StaleWeight func(staleRounds float64) float64

// DJAMWeight is the staleness rule used by the asynchronous wire protocol,
// after DJAM's damped asynchronous Jacobi updates: γ(s) = 1/(1 + min(s,
// maxStale)). Fresh arrivals move the consensus at close to full step;
// arrivals computed against an s-rounds-old snapshot are attenuated, and
// the attenuation saturates at maxStale so a device that slept through the
// night still contributes 1/(1+maxStale) of a full step rather than
// vanishing.
func DJAMWeight(maxStale float64) StaleWeight {
	if maxStale < 0 {
		maxStale = 0
	}
	return func(s float64) float64 {
		if s < 0 {
			s = 0
		}
		return 1 / (1 + math.Min(s, maxStale))
	}
}

// FoldEntry is one device's freshly arrived local solution.
type FoldEntry struct {
	// User is the device's index in the fold's dual-variable slice.
	User int
	// X is the arriving local variable x_t = w_t − v_t.
	X mat.Vector
	// Stale is the arrival's staleness in consensus rounds (see
	// StaleWeight). Ignored when the fold has no weight rule.
	Stale float64
}

// AsyncFold is the consensus algebra shared by the in-process asynchronous
// trainer (core.TrainAsync) and the asynchronous wire protocol
// (internal/protocol): devices contribute solutions at their own pace, and
// each Fold refreshes z over *every* standing solution — fresh arrivals
// plus the bounded-staleness solutions other devices are still computing
// against — then advances the duals of the fresh participants only,
// exactly the synchronous rule restricted to this fold's arrivals.
//
// The z-update is z ← z + γ·(ẑ − z) with ẑ = SquaredNormZ over the
// standing set and γ from the Weight rule (γ ≡ 1 when Weight is nil, in
// which case the fold is the unweighted barrier fold of the in-process
// trainer, bit-identical to the pre-extraction asyncRound algebra).
type AsyncFold struct {
	// Z is the current consensus. Callers may read it between folds but
	// must not mutate it, and the fold owns its storage: Z alternates
	// between two buffers, so a caller that keeps a snapshot across a Fold
	// (a device exchange in flight) copies it.
	Z mat.Vector
	// Us are the scaled duals, one per device slot; nil-free and owned by
	// the fold.
	Us []mat.Vector
	// Rho is the ADMM penalty.
	Rho float64
	// Weight is the staleness damping rule; nil disables damping.
	Weight StaleWeight

	xs    []mat.Vector // standing solution per slot, nil until first arrival
	dim   int
	epoch int
	// Scratch of one Fold, made here once: the buffer the next Z is built
	// in (the last Z becomes it in turn), and Σ(x_t + u_t), which is scaled
	// into ẑ and then differenced into ẑ − z in place.
	zNext, sum mat.Vector
}

// NewAsyncFold starts a fold at consensus w0 with `users` device slots.
func NewAsyncFold(w0 mat.Vector, users int, rho float64, weight StaleWeight) (*AsyncFold, error) {
	if len(w0) == 0 || users <= 0 {
		return nil, fmt.Errorf("admm: NewAsyncFold: need positive dim (%d) and users (%d)", len(w0), users)
	}
	if rho <= 0 {
		return nil, fmt.Errorf("admm: NewAsyncFold: rho must be positive, got %g", rho)
	}
	us := make([]mat.Vector, users)
	for t := range us {
		us[t] = mat.NewVector(len(w0))
	}
	return &AsyncFold{
		Z:      w0.Clone(),
		Us:     us,
		Rho:    rho,
		Weight: weight,
		xs:     make([]mat.Vector, users),
		dim:    len(w0),
		zNext:  mat.NewVector(len(w0)),
		sum:    mat.NewVector(len(w0)),
	}, nil
}

// Epoch is the number of folds performed so far — the consensus round
// counter that staleness is measured against.
func (f *AsyncFold) Epoch() int { return f.epoch }

// Standing is the number of device slots holding a solution (fresh or
// carried); folds refresh z over exactly this set.
func (f *AsyncFold) Standing() int {
	n := 0
	for _, x := range f.xs {
		if x != nil {
			n++
		}
	}
	return n
}

// Seed installs a standing solution for slot t without performing a fold —
// the wire server uses it to carry a device's last known solution across a
// CCCP-round boundary so later folds do not wait for the straggler to
// re-report.
func (f *AsyncFold) Seed(t int, x mat.Vector) {
	f.xs[t] = x
}

// Drop clears slot t's standing solution and dual: the device has left
// permanently and must stop contributing to the consensus.
func (f *AsyncFold) Drop(t int) {
	f.xs[t] = nil
	f.Us[t] = mat.NewVector(f.dim)
}

// Fold performs one consensus refresh over the fresh arrivals: installs
// each entry as its device's standing solution, recomputes z over all
// standing solutions and duals (damped by the Weight rule at the maximum
// staleness among the arrivals), advances the fresh participants' duals
// against the new z, and returns the residuals in the asynchronous
// trainer's convention — Primal = sqrt(Σ_standing ||x_t − z||²), Dual =
// ρ·||Δz|| — plus the standing-contributor count. It allocates nothing: the
// element operations and their order are those of the vector-per-step form
// (sum, SquaredNormZ, clone-and-AddScaled, SubVec per dual), run in the
// fold's own buffers.
func (f *AsyncFold) Fold(fresh []FoldEntry) (Residuals, int) {
	maxStale := 0.0
	for _, e := range fresh {
		f.xs[e.User] = e.X
		if e.Stale > maxStale {
			maxStale = e.Stale
		}
	}
	sum := f.sum
	sum.Zero()
	contributors := 0
	for t := range f.xs {
		if f.xs[t] != nil {
			sum.Add(f.xs[t])
			sum.Add(f.Us[t])
			contributors++
		}
	}
	zPrev := f.Z
	if contributors > 0 {
		zHat := sum
		zHat.Scale(SquaredNormZScale(contributors, f.Rho))
		z := f.zNext
		if f.Weight == nil {
			z.CopyFrom(zHat)
		} else {
			// z ← z + γ(ẑ − z): the damped DJAM step.
			z.CopyFrom(zPrev)
			zHat.Sub(zPrev)
			z.AddScaled(f.Weight(maxStale), zHat)
		}
		f.Z, f.zNext = z, zPrev
	}
	for _, e := range fresh {
		u, x := f.Us[e.User], f.xs[e.User]
		for j, zj := range f.Z {
			u[j] += x[j] - zj
		}
	}
	var primalSq float64
	for t := range f.xs {
		if f.xs[t] != nil {
			primalSq += mat.SquaredDist(f.xs[t], f.Z)
		}
	}
	dual := f.Rho * mat.Dist2(f.Z, zPrev)
	f.epoch++
	return Residuals{Primal: math.Sqrt(primalSq), Dual: dual}, contributors
}
