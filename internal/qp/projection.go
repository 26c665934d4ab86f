package qp

import (
	"fmt"
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
// by scanning x in descending order (Held, Wolfe & Crowder) and shifts.
// It panics if b < 0. Inputs up to 64 long allocate nothing.
func ProjectSimplex(x mat.Vector, b float64) {
	var stack [64]float64
	projectSimplex(x, b, mat.Resize(stack[:], len(x)))
}

// ProjectBudget projects x in place onto {z >= 0, Σ z_i <= b}: if clamping
// to the orthant already satisfies the budget the clamp is the projection;
// otherwise the projection lies on the face Σ z = b and reduces to
// ProjectSimplex. Inputs up to 64 long allocate nothing.
func ProjectBudget(x mat.Vector, b float64) {
	var stack [64]float64
	projectBudget(x, b, mat.Resize(stack[:], len(x)))
}

// projectBudget is ProjectBudget with a caller-owned sort buffer of capacity
// at least len(x).
func projectBudget(x []float64, b float64, buf []float64) {
	if b < 0 {
		panic(fmt.Sprintf("qp: ProjectBudget: negative budget %g", b))
	}
	var clampedSum float64
	for _, v := range x {
		if v > 0 {
			clampedSum += v
		}
	}
	if clampedSum <= b {
		ProjectNonneg(x)
		return
	}
	projectSimplex(x, b, buf)
}

// projectSimplex is ProjectSimplex with a caller-owned sort buffer of
// capacity at least len(x).
//
// The threshold scan visits x in descending order, adding each value to a
// running sum, and stops at the first value that does not clear the running
// threshold — so only the prefix it visits needs ordering. The values are
// therefore partitioned, positives at the top of the buffer, and sorted in
// two stages: the positives up front, the rest only if the scan outlives
// every positive one. Rounding aside it cannot when Σ positives > b > 0,
// the ProjectBudget case, so the solvers sort the positives alone.
//
// Bit-identity: the scan's operands are the values of x in descending order,
// whatever ordered them. Equal values are interchangeable; +0 and −0, which
// compare equal and may swap, add the same to every sum the scan divides; and
// slices.Sort, like sort.Float64Slice, puts NaNs below everything. θ is
// therefore bitwise what sort.Sort(sort.Reverse(sort.Float64Slice)) on a
// clone of x yields (refProjectSimplex in reference_test.go).
func projectSimplex(x []float64, b float64, buf []float64) {
	if b < 0 {
		panic(fmt.Sprintf("qp: ProjectSimplex: negative budget %g", b))
	}
	n := len(x)
	if n == 0 {
		return
	}
	if b == 0 {
		mat.Vector(x).Zero()
		return
	}
	asc, lo, hi := buf[:n], 0, n // asc[:lo] the non-positives, asc[hi:] the positives
	for _, v := range x {
		if v > 0 {
			hi--
			asc[hi] = v
		} else {
			asc[lo] = v
			lo++
		}
	}
	slices.Sort(asc[hi:])
	var cum, theta float64
	for i := n - 1; i >= 0; i-- {
		if i == hi-1 {
			slices.Sort(asc[:hi])
		}
		cum += asc[i]
		t := (cum - b) / float64(n-i)
		if !(asc[i]-t > 0) {
			if i == n-1 {
				theta = t // a lone huge entry absorbs b entirely
			}
			break
		}
		theta = t
	}
	for i, v := range x {
		if v-theta > 0 {
			x[i] = v - theta
		} else {
			x[i] = 0
		}
	}
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
	return s.validate(make([]bool, n))
}

// validate is Validate for dimension len(seen), marking in the all-false
// seen every index some group covers — on success, the mask the projection
// needs to find the indices constrained to x_i >= 0 alone.
func (s *GroupSpec) validate(seen []bool) error {
	n := len(seen)
	if len(s.Groups) != len(s.Budgets) {
		return fmt.Errorf("qp: GroupSpec: %d groups but %d budgets", len(s.Groups), len(s.Budgets))
	}
	for g, idx := range s.Groups {
		if s.Budgets[g] < 0 {
			return fmt.Errorf("qp: GroupSpec: group %d has negative budget %g", g, s.Budgets[g])
		}
		for _, i := range idx {
			if i < 0 || i >= n {
				return fmt.Errorf("qp: GroupSpec: group %d index %d out of range [0,%d)", g, i, n)
			}
			if seen[i] {
				return fmt.Errorf("qp: GroupSpec: index %d appears in multiple groups", i)
			}
			seen[i] = true
		}
	}
	return nil
}

// Project projects x in place onto the feasible set described by the spec.
// Because the groups are disjoint, the projection factorizes exactly.
func (s *GroupSpec) Project(x mat.Vector) {
	pr := projector{covered: make([]bool, len(x))}
	for _, idx := range s.Groups {
		for _, i := range idx {
			pr.covered[i] = true
		}
	}
	pr.grow(len(x))
	pr.project(s, x)
}

// projector holds what projecting n-vectors onto a GroupSpec needs besides
// the spec, so the FISTA loop projects without allocating: the coverage mask
// (as validate leaves it) and the gather and sort buffers.
type projector struct {
	covered        []bool
	gather, sorted []float64
}

// grow sizes the float buffers for dimension n; the mask is the caller's.
func (p *projector) grow(n int) {
	p.gather, p.sorted = mat.Resize(p.gather, n), mat.Resize(p.sorted, n)
}

func (p *projector) project(s *GroupSpec, x []float64) {
	for g, idx := range s.Groups {
		buf := p.gather[:len(idx)]
		for k, i := range idx {
			buf[k] = x[i]
		}
		projectBudget(buf, s.Budgets[g], p.sorted)
		for k, i := range idx {
			x[i] = buf[k]
		}
	}
	for i, c := range p.covered {
		if !c && x[i] < 0 {
			x[i] = 0
		}
	}
}

// Feasible reports whether x satisfies the constraints within tol.
func (s *GroupSpec) Feasible(x mat.Vector, tol float64) bool {
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for g, idx := range s.Groups {
		var sum float64
		for _, i := range idx {
			sum += x[i]
		}
		if sum > s.Budgets[g]+tol {
			return false
		}
	}
	return true
}
