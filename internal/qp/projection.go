package qp

import (
	"fmt"
	"math"
	"slices"

	"plos/internal/mat"
)

// ProjectNonneg clamps x to the nonnegative orthant in place.
func ProjectNonneg(x mat.Vector) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// ProjectSimplex projects x in place onto the scaled simplex
// {z >= 0, Σ z_i = b}: it finds the threshold θ with Σ max(x_i − θ, 0) = b
// and shifts. It panics if b < 0. Inputs up to 64 long allocate nothing.
func ProjectSimplex(x mat.Vector, b float64) {
	var stack [64]float64
	projectBudget(x, b, mat.Resize(stack[:], len(x)), true)
}

// ProjectBudget projects x in place onto {z >= 0, Σ z_i <= b}: the clamp to
// the orthant if that meets the budget, else ProjectSimplex's point on the
// face Σ z = b. Inputs up to 64 long allocate nothing.
func ProjectBudget(x mat.Vector, b float64) {
	var stack [64]float64
	projectBudget(x, b, mat.Resize(stack[:], len(x)), false)
}

// projectBudget is ProjectBudget, or ProjectSimplex when face is set, with a
// caller-owned buffer of length at least len(x): the positives pass, the
// threshold, and the pass that writes each entry's projection.
func projectBudget(x []float64, b float64, buf []float64, face bool) {
	sum, m := positives(x)
	theta, clamp := threshold(x, b, sum, m, buf, face)
	if clamp {
		ProjectNonneg(x)
		return
	}
	for i, v := range x {
		x[i] = shift(v, theta, false)
	}
}

// positives returns the sum and the count of x's positive entries, summed in
// index order: the input the threshold starts from.
func positives(x []float64) (sum float64, m int) {
	for _, v := range x {
		if v > 0 {
			sum += v
			m++
		}
	}
	return sum, m
}

// threshold is the θ that projects x onto the budget b (or, with face, onto
// its face Σ = b), given the sum and count of x's positives in index order;
// clamp reports that the orthant clamp already meets the budget (never with
// face), and θ = +Inf, sending every entry to +0, is a zero budget's face. θ is
// Michelot's: from a set holding the support — the positives when their sum
// exceeds b, else all of x — repeatedly set θ to the mean excess
// (Σ set − b)/|set| and drop the entries at or below it, until a pass drops
// nothing (or everything: a lone huge entry absorbs b). The set shrinks in
// buf, in x's order. θ matches the sorted scan's to DESIGN.md §11.3's bound; a
// θ that is not finite (an infinite or NaN entry, an overflowing sum) is the
// sorted scan's, bit for bit. It panics if b < 0.
func threshold(x []float64, b, sum float64, m int, buf []float64, face bool) (theta float64, clamp bool) {
	if b < 0 {
		panic(fmt.Sprintf("qp: projection onto a negative budget %g", b))
	}
	switch {
	case sum <= b && !face:
		return 0, true
	case b == 0 || len(x) == 0:
		return math.Inf(1), false
	case sum <= b:
		sum, m = mat.Vector(x).Sum(), len(x)
	}
	// The first pass filters x itself: with θ > 0 its entries above θ are
	// the positives' entries above θ.
	set := x
	for theta = (sum - b) / float64(m); theta-theta == 0; theta = (sum - b) / float64(m) {
		kept := 0
		sum = 0
		for _, v := range set {
			if v > theta {
				buf[kept] = v
				kept++
				sum += v
			}
		}
		if kept == m || kept == 0 {
			break
		}
		set, m = buf[:kept], kept
	}
	if theta-theta != 0 {
		theta = sortedThreshold(x, b, buf)
	}
	return theta, false
}

// sortedThreshold is the scan of Held, Wolfe & Crowder over x's values in
// descending order (slices.Sort puts NaNs first, so it meets them last):
// refProjectSimplex's θ bit for bit.
func sortedThreshold(x []float64, b float64, buf []float64) float64 {
	asc := buf[:copy(buf, x)]
	slices.Sort(asc)
	n := len(asc)
	theta, cum := asc[n-1]-b, 0.0
	for i := n - 1; i >= 0; i-- {
		cum += asc[i]
		t := (cum - b) / float64(n-i)
		if !(asc[i]-t > 0) {
			break
		}
		theta = t
	}
	return theta
}

// GroupSpec describes disjoint index groups, each with its own budget cap
// Σ_{i∈Groups[g]} x_i <= Budgets[g]. Indices not covered by any group are
// constrained only to x_i >= 0.
type GroupSpec struct {
	Groups  [][]int
	Budgets []float64
}

// Validate checks that the spec is well formed for a problem of dimension n:
// group/budget lengths match, budgets are nonnegative, indices are in range
// and used at most once.
func (s *GroupSpec) Validate(n int) error {
	return (&projector{covered: make([]bool, n)}).validate(s)
}

// validate is Validate for dimension len(p.covered), an all-false mask. On
// success p holds the mask of the indices some group covers (the rest are
// held to x_i >= 0 alone) and the group, if any, listing 0…n−1 in order.
func (p *projector) validate(s *GroupSpec) error {
	n := len(p.covered)
	if len(s.Groups) != len(s.Budgets) {
		return fmt.Errorf("qp: GroupSpec: %d groups but %d budgets", len(s.Groups), len(s.Budgets))
	}
	p.whole = -1
	for g, idx := range s.Groups {
		if s.Budgets[g] < 0 {
			return fmt.Errorf("qp: GroupSpec: group %d has negative budget %g", g, s.Budgets[g])
		}
		inOrder := len(idx) == n
		for k, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("qp: GroupSpec: group %d index %d out of range [0,%d)", g, i, n)
			}
			if p.covered[i] {
				return fmt.Errorf("qp: GroupSpec: index %d appears in multiple groups", i)
			}
			p.covered[i] = true
			inOrder = inOrder && i == k
		}
		if inOrder {
			p.whole = g
		}
	}
	return nil
}

// projector holds what projecting n-vectors onto a GroupSpec needs besides
// the spec, so the FISTA loop projects without allocating. The whole group is
// projected in place: its gather and scatter would copy x onto itself, and
// the other groups, and the uncovered indices, are empty.
type projector struct {
	covered     []bool    // validate's mask of the indices some group lists
	whole       int       // the group listing 0…n−1 in order, or −1
	gather, set []float64 // a group's entries; the threshold's candidates
}

// grow sizes the float buffers for dimension n; the mask is the caller's.
func (p *projector) grow(n int) {
	p.gather, p.set = mat.Resize(p.gather, n), mat.Resize(p.set, n)
}

// groups projects each group of x through the gather buffer and writes it
// back; the uncovered indices are left as they are.
func (p *projector) groups(s *GroupSpec, x []float64) {
	for g, idx := range s.Groups {
		buf := p.gather[:len(idx)]
		for k, i := range idx {
			buf[k] = x[i]
		}
		projectBudget(buf, s.Budgets[g], p.set, false)
		for k, i := range idx {
			x[i] = buf[k]
		}
	}
}
