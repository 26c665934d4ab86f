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
// standing set and γ from the Weight rule (γ ≡ 1 when Weight is nil, the
// unweighted barrier fold of the in-process trainer).
//
// One arrival changes one term of Σ_standing(x_t + u_t), so the fold keeps
// that sum across folds and a Fold costs O(dim) per fresh entry whatever the
// fleet size, after DJAM's node-local step. The fold owns a copy of every
// standing x_t (DESIGN.md §12: keepers copy — a caller may rewrite the vector
// it passed the moment the call returns), which is what lets an arrival
// subtract the term it replaces. Summation order: a Fold adds each fresh
// entry's change (−x_old + x_new, or x_new + u_t for a slot that was not
// standing) and then each fresh dual step x_t − z into the sum, in entry
// order; construction, Seed, Drop and Restart mark the sum dirty, and the
// next Fold re-sums it from zero, x then u per standing slot in slot order —
// so the fold after one of those is bit-identical to the full re-sum and the
// folds between them drift from it only by rounding. The primal residual is
// a pass over every standing solution, so Fold does not compute it: Primal
// does, for the caller that reads it.
type AsyncFold struct {
	// Z is the current consensus. Callers may read it between folds but
	// must not mutate it, and the fold owns its storage: Z alternates
	// between two buffers, so a caller that keeps a snapshot across a Fold
	// (a device exchange in flight) copies it.
	Z mat.Vector
	// Us are the scaled duals, one per device slot, owned by the fold and
	// held in its running sum: callers read them, and write one only to load
	// a carried dual between construction or Restart and the next Fold,
	// whose re-sum picks it up.
	Us []mat.Vector
	// Rho is the ADMM penalty.
	Rho float64
	// Weight is the staleness damping rule; nil disables damping.
	Weight StaleWeight

	// xs[t] is the fold's copy of slot t's standing solution, made on the
	// slot's first install and refilled after; it counts only while
	// standing[t]. count is the number of standing slots.
	xs       []mat.Vector
	standing []bool
	count    int
	dim      int
	epoch    int
	// sum is Σ_standing(x_t + u_t), kept across folds; dirty means the next
	// Fold re-sums it in slot order.
	sum   mat.Vector
	dirty bool
	// Scratch of one Fold, made here once: the buffer the next Z is built
	// in (the last Z becomes it in turn), and the damped step's ẑ, scaled
	// from the sum and then differenced into ẑ − z in place.
	zNext, zHat mat.Vector
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
		Z:        w0.Clone(),
		Us:       us,
		Rho:      rho,
		Weight:   weight,
		xs:       make([]mat.Vector, users),
		standing: make([]bool, users),
		dim:      len(w0),
		sum:      mat.NewVector(len(w0)),
		dirty:    true,
		zNext:    mat.NewVector(len(w0)),
		zHat:     mat.NewVector(len(w0)),
	}, nil
}

// Epoch is the number of folds performed since construction or the last
// Restart — the consensus round counter that staleness is measured against.
func (f *AsyncFold) Epoch() int { return f.epoch }

// Standing is the number of device slots holding a solution (fresh or
// carried); folds refresh z over exactly this set.
func (f *AsyncFold) Standing() int { return f.count }

// Restart begins a new CCCP round on the fold's storage: z ← w0, epoch 0 and
// no standing solution; the duals carry over (ADMM warm start). It allocates
// nothing.
func (f *AsyncFold) Restart(w0 mat.Vector) {
	f.Z.CopyFrom(w0)
	f.epoch = 0
	clear(f.standing)
	f.count = 0
	f.dirty = true
}

// Seed installs a copy of x as slot t's standing solution without
// performing a fold — the wire server uses it to carry a device's last known
// solution across a CCCP-round boundary so later folds do not wait for the
// straggler to re-report.
func (f *AsyncFold) Seed(t int, x mat.Vector) {
	f.dirty = true
	f.install(t, x)
}

// Drop clears slot t's standing solution and dual: the device has left
// permanently and must stop contributing to the consensus.
func (f *AsyncFold) Drop(t int) {
	if f.standing[t] {
		f.standing[t] = false
		f.count--
	}
	f.Us[t].Zero()
	f.dirty = true
}

// install copies x in as slot t's standing solution and, while the sum is
// clean, moves the sum by the change.
func (f *AsyncFold) install(t int, x mat.Vector) {
	if len(x) != f.dim {
		panic(fmt.Sprintf("admm: AsyncFold: slot %d solution has %d entries, want %d", t, len(x), f.dim))
	}
	if f.xs[t] == nil {
		f.xs[t] = mat.NewVector(f.dim)
	}
	xt, s := f.xs[t], f.sum
	switch {
	case f.dirty:
		copy(xt, x)
	case f.standing[t]:
		for j, xj := range x {
			s[j] += xj - xt[j]
			xt[j] = xj
		}
	default:
		u := f.Us[t]
		for j, xj := range x {
			s[j] += xj + u[j]
			xt[j] = xj
		}
	}
	if !f.standing[t] {
		f.standing[t] = true
		f.count++
	}
}

// Fold performs one consensus refresh over the fresh arrivals: installs
// each entry as its device's standing solution, recomputes z from the
// running sum (damped by the Weight rule at the maximum staleness among the
// arrivals), and advances the fresh participants' duals against the new z.
// It returns the dual residual ρ·‖Δz‖ and the standing-contributor count;
// the primal residual is Primal's. It allocates nothing, and the z-update
// and dual steps are the element operations of the vector-per-step form
// (SquaredNormZ, clone-and-AddScaled, SubVec per dual) run in the fold's
// own buffers.
func (f *AsyncFold) Fold(fresh []FoldEntry) (dual float64, standing int) {
	maxStale := 0.0
	for _, e := range fresh {
		f.install(e.User, e.X)
		if e.Stale > maxStale {
			maxStale = e.Stale
		}
	}
	if f.dirty {
		f.sum.Zero()
		for t, on := range f.standing {
			if on {
				f.sum.Add(f.xs[t])
				f.sum.Add(f.Us[t])
			}
		}
		f.dirty = false
	}
	zPrev := f.Z
	if f.count > 0 {
		a := SquaredNormZScale(f.count, f.Rho)
		z := f.zNext
		if f.Weight == nil {
			z.CopyFrom(f.sum)
			z.Scale(a)
		} else {
			// z ← z + γ(ẑ − z): the damped DJAM step.
			zHat := f.zHat
			zHat.CopyFrom(f.sum)
			zHat.Scale(a)
			z.CopyFrom(zPrev)
			zHat.Sub(zPrev)
			z.AddScaled(f.Weight(maxStale), zHat)
		}
		f.Z, f.zNext = z, zPrev
	}
	s := f.sum
	for _, e := range fresh {
		u, x := f.Us[e.User], f.xs[e.User]
		for j, zj := range f.Z {
			d := x[j] - zj
			u[j] += d
			s[j] += d
		}
	}
	f.epoch++
	return f.Rho * mat.Dist2(f.Z, zPrev), f.count
}

// Primal is the primal residual sqrt(Σ_standing ‖x_t − z‖²) of the fold's
// current state, each term from zero and added in slot order. It is a pass
// over every standing solution — the cost Fold no longer pays — so callers
// compute it only where it is read: a stopping test whose cheaper conditions
// passed, an attached observer, a round's final report.
func (f *AsyncFold) Primal() float64 {
	var sq float64
	for t, on := range f.standing {
		if on {
			sq += mat.SquaredDist(f.xs[t], f.Z)
		}
	}
	return math.Sqrt(sq)
}
