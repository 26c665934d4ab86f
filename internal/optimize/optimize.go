// Package optimize provides the two outer-loop drivers from the paper's
// Algorithm 1/2 that are shared between centralized and distributed PLOS:
//
//   - CCCP, the concave-convex procedure (Yuille & Rangarajan 2003): the
//     non-convex |w·x| terms are linearized at the previous iterate and the
//     resulting convex problem is re-solved until the objective stabilizes.
//     CCCP monotonically decreases a bounded objective, so it converges.
//
//   - Cutting-plane working sets (Kelley 1960): problem (11) has Σ_t 2^{m_t}
//     constraints — one per subset vector c_t ∈ {0,1}^{m_t}. The working set
//     Ω_t starts empty and grows by the most-violated constraint (Eq. 14)
//     until no constraint is violated by more than ε (Eq. 15).
package optimize

import (
	"errors"
	"fmt"

	"plos/internal/mat"
)

// Constraint is one aggregated cutting-plane constraint for a single user:
// in hyperplane variables it reads  w·A >= C − ξ. A and C are the z_kt and
// c_kt aggregates of paper Eq. (17)–(18), expressed in the user's original
// feature space (the stacked Φ-space inner products are recovered
// analytically by the solver; see internal/core).
type Constraint struct {
	A mat.Vector
	C float64
	// Key identifies the selected sample subset (packed bitmask) so a
	// constraint is never added to a working set twice.
	Key string
}

// WorkingSet is one user's Ω_t: an insertion-ordered, deduplicated set of
// constraints. The zero value is ready to use.
type WorkingSet struct {
	constraints []Constraint
	keys        map[string]struct{}
	// gen increments every Reset, so solver-side caches keyed on the
	// set's append-only growth (internal/qp.GramCache users) can detect
	// that previously-flattened constraints vanished and must rebuild.
	gen uint64
	// dots is Slack's buffer for the w·A_k products.
	dots mat.Vector
}

// Add appends c unless an identical subset is already present. It reports
// whether the constraint was inserted. An inserted c.A becomes the set's:
// AddCut may refill it once a Reset has retired the constraint.
func (ws *WorkingSet) Add(c Constraint) bool {
	if ws.keys == nil {
		ws.keys = make(map[string]struct{})
	}
	if _, dup := ws.keys[c.Key]; dup {
		return false
	}
	ws.keys[c.Key] = struct{}{}
	ws.constraints = append(ws.constraints, c)
	return true
}

// AddCut is Add for a candidate still living in a CutScratch: the duplicate
// check runs on the scratch-owned key bytes, and only a candidate that is
// actually inserted is copied (its key interned) — a rejected one costs no
// allocation. A is copied into the row a Reset left behind in the backing
// array when there is one: cold working sets are emptied every CCCP round.
func (ws *WorkingSet) AddCut(c Constraint, bits []byte) bool {
	if _, dup := ws.keys[string(bits)]; dup {
		return false
	}
	var a mat.Vector
	if n := len(ws.constraints); n < cap(ws.constraints) {
		a = ws.constraints[:n+1][n].A
	}
	a = mat.Resize(a, len(c.A))
	copy(a, c.A)
	return ws.Add(Constraint{A: a, C: c.C, Key: string(bits)})
}

// Len returns the number of constraints in the set.
func (ws *WorkingSet) Len() int { return len(ws.constraints) }

// Constraints returns the constraints in insertion order. The slice is the
// set's backing store; callers must not mutate it.
func (ws *WorkingSet) Constraints() []Constraint { return ws.constraints }

// Reset empties the working set (used between CCCP rounds when running
// with cold working sets) and advances its generation. AddCut refills the
// retired rows: a Constraint read before the Reset must not be used after it.
func (ws *WorkingSet) Reset() {
	ws.constraints = ws.constraints[:0]
	clear(ws.keys)
	ws.gen++
}

// Generation returns a counter that advances on every Reset. Between equal
// generations the set only appends, so a cache built against a generation
// stays a valid prefix view of the set for as long as the generation holds.
func (ws *WorkingSet) Generation() uint64 { return ws.gen }

// MostViolated constructs one user's most-violated constraint (Eq. 14)
// given the hyperplane w. eff[i] is the sample's effective label: the true
// label y_i for labeled samples, the CCCP-frozen sign s_i for unlabeled
// ones. weight[i] is the per-sample loss weight (Cl/m_t or Cu/m_t).
// Sample i is selected iff its functional margin eff_i·(w·x_i) < 1.
//
// The returned constraint may be empty (A = 0, C = 0) when every sample has
// margin >= 1; its violation against any ξ >= 0 is then non-positive.
func MostViolated(x *mat.Matrix, eff, weight []float64, w mat.Vector) (Constraint, error) {
	var s CutScratch // fresh, so the result owns its A
	c, bits, err := s.MostViolated(x, eff, weight, w)
	c.Key = string(bits)
	return c, err
}

// CutScratch holds the buffers of one user's most-violated-constraint search
// — the margins X·w, then the selected rows' coefficients; the selected rows;
// the aggregate A and the subset bitmask — so a cut round that ends up adding
// nothing allocates nothing. The zero value is ready; one scratch serves one
// goroutine at a time.
type CutScratch struct {
	margins, a mat.Vector
	rows       []int // the selected samples, ascending
	bits       []byte
}

// MostViolated is the package-level MostViolated on s's buffers: the returned
// constraint's A and the key bytes are s's own (valid until its next call)
// and Key is left empty; WorkingSet.AddCut copies them if the cut is kept.
// The margins come from one row-blocked X·w product, each bitwise w·x_i. A is
// built by one mat.AddScaledRows call over the selected rows, ascending, so
// it is bitwise the per-row AddScaled sum.
func (s *CutScratch) MostViolated(x *mat.Matrix, eff, weight []float64, w mat.Vector) (Constraint, []byte, error) {
	if x.Rows != len(eff) || x.Rows != len(weight) {
		return Constraint{}, nil, fmt.Errorf("optimize: MostViolated: %d rows, %d labels, %d weights",
			x.Rows, len(eff), len(weight))
	}
	if x.Cols != len(w) {
		return Constraint{}, nil, fmt.Errorf("optimize: MostViolated: %d features vs |w| = %d", x.Cols, len(w))
	}
	s.margins = mat.Resize(s.margins, x.Rows)
	s.a = mat.Resize(s.a, x.Cols)
	s.a.Zero()
	if cap(s.rows) < x.Rows {
		s.rows = make([]int, x.Rows)
	}
	if nb := (x.Rows + 7) / 8; cap(s.bits) < nb {
		s.bits = make([]byte, nb)
	} else {
		s.bits = s.bits[:nb]
		clear(s.bits)
	}
	x.MulVecTo(s.margins, w)
	var c float64
	// The k-th selected row's coefficient weight_i·eff_i goes to margins[k]:
	// k <= i, so that margin has been read.
	coef, k := s.margins, 0
	for i, margin := range s.margins {
		if weight[i] == 0 {
			continue // contributes nothing to A or C
		}
		if eff[i]*margin < 1 {
			s.rows[k], coef[k] = i, weight[i]*eff[i]
			k++
			c += weight[i]
			s.bits[i/8] |= 1 << (i % 8)
		}
	}
	mat.AddScaledRows(s.a, x, s.rows[:k], coef[:k])
	return Constraint{A: s.a, C: c}, s.bits, nil
}

// Violation returns how much constraint c is violated at hyperplane w with
// slack xi: max over nothing — just C − w·A − ξ. A positive value means the
// constraint is violated by that amount (compare against ε per Eq. 15).
func Violation(c Constraint, w mat.Vector, xi float64) float64 {
	return c.C - w.Dot(c.A) - xi
}

// Slack returns the tight slack value ξ_t implied by a working set at w:
// max(0, max_k (C_k − w·A_k)). It uses the set's own product buffer, so it
// must not run concurrently on one set.
func Slack(ws *WorkingSet, w mat.Vector) float64 {
	cons := ws.constraints
	ws.dots = mat.Resize(ws.dots, len(cons))
	mat.DotRows(ws.dots, w, func(k int) mat.Vector { return cons[k].A })
	var s float64
	for k, dot := range ws.dots {
		if v := cons[k].C - dot; v > s {
			s = v
		}
	}
	return s
}

// CCCPInfo reports the outcome of a CCCP run.
type CCCPInfo struct {
	Iterations int
	Objective  float64
	Converged  bool
	// History records the objective after each CCCP round.
	History []float64
}

// ErrNotDescending is wrapped into CCCP's error when a round increases the
// objective by more than the tolerance — a symptom of an inexact inner
// solver, surfaced rather than hidden because monotone descent is CCCP's
// convergence guarantee.
var ErrNotDescending = errors.New("optimize: CCCP objective increased")

// CCCP iterates step (which must linearize at the current iterate and
// solve the convexified problem, returning its objective) until the
// objective changes by at most tol·(1+|L|) between rounds, or maxIter
// rounds elapse. On non-monotone steps it returns the iterate anyway with
// an ErrNotDescending-wrapped error so callers can decide.
//
// prior continues a run from an objective history (one entry per
// already-completed round, oldest first): the round counter starts at
// len(prior), the first new round's monotonicity and convergence checks
// compare against the last prior objective, and prior is carried into the
// returned History. It powers checkpoint restore — a resumed run makes the
// same decisions the uninterrupted run would have. A nil prior is a fresh
// run.
//
// clean is a per-round cleanliness hint for fault-tolerant callers.
// clean(k), consulted right after step(k) returns, reports whether round k's
// objective is trustworthy; a degraded round (one folded from stale partials
// while a worker was down) is not comparable to its neighbours, so the
// monotonicity and convergence tests are skipped for that round and for the
// first clean round after it — training keeps going instead of mistaking the
// perturbation for convergence or ascent. A nil clean treats every round as
// clean.
func CCCP(step func(iter int) (float64, error), tol float64, maxIter int, prior []float64, clean func(iter int) bool) (CCCPInfo, error) {
	if tol <= 0 {
		tol = 1e-4
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	info := CCCPInfo{
		Iterations: len(prior),
		History:    append([]float64(nil), prior...),
	}
	prev := 0.0
	if len(prior) > 0 {
		prev = prior[len(prior)-1]
		info.Objective = prev
	}
	prevClean := true
	for k := len(prior); k < maxIter; k++ {
		obj, err := step(k)
		if err != nil {
			return info, fmt.Errorf("optimize: CCCP round %d: %w", k, err)
		}
		info.Iterations = k + 1
		info.Objective = obj
		info.History = append(info.History, obj)
		thisClean := clean == nil || clean(k)
		if k > 0 && thisClean && prevClean {
			delta := prev - obj
			if delta < -tol*(1+abs(prev)) {
				return info, fmt.Errorf("%w at round %d: %g -> %g", ErrNotDescending, k, prev, obj)
			}
			if abs(delta) <= tol*(1+abs(prev)) {
				info.Converged = true
				return info, nil
			}
		}
		prev = obj
		prevClean = thisClean
	}
	return info, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
