package qp

import "plos/internal/mat"

// Scratch holds everything a solve needs besides its inputs — the FISTA
// iterates (x, y, grad, xNext), the support of y and its values, and the
// projection's buffers — so callers that solve a sequence of related problems
// (cutting-plane rounds, ADMM x-updates) allocate nothing per solve. The zero
// value is ready to use; buffers grow on demand and are reused.
//
// A Scratch is owned by one solving goroutine at a time: it is not safe for
// concurrent solves. Scratch.Solve hands back its own solution buffer; Solve
// with Options.Scratch copies it out.
type Scratch struct {
	x, y, grad, xNext mat.Vector
	supp              []int
	vals              mat.Vector
	proj              projector
}

// grow re-slices every buffer to length n. Too small, they are reallocated
// with room for 1.5n, as GramCache does, so a working set that grows one
// constraint at a time reallocates O(log n) times. Iterate contents are
// undefined; the coverage mask is cleared.
func (s *Scratch) grow(n int) {
	if cap(s.x) < n {
		room := n + n/2
		s.x, s.y = make(mat.Vector, room), make(mat.Vector, room)
		s.grad, s.xNext = make(mat.Vector, room), make(mat.Vector, room)
		s.supp, s.vals = make([]int, room), make(mat.Vector, room)
		s.proj.covered = make([]bool, room)
		s.proj.gather, s.proj.set = make([]float64, room), make([]float64, room)
	}
	s.x, s.y, s.grad, s.xNext = s.x[:n], s.y[:n], s.grad[:n], s.xNext[:n]
	s.supp, s.vals = s.supp[:n], s.vals[:n]
	s.proj.covered = s.proj.covered[:n]
	clear(s.proj.covered)
	s.proj.grow(n)
}

// mulVec sets grad = G·y from y's support, the first k entries of s.supp and
// s.vals: it adds those rows of G to a zeroed grad in one mat.AddScaledRows
// call. Row j is read as column j, so for symmetric G — every GramCache matrix
// is mirrored exactly — grad[i] is the ascending sum Σ_j G_ij·y_j over y's
// support, and the terms MulVecTo adds besides are G_ij·(±0), zeros that leave
// a sum as it was (G finite): grad is MulVecTo's bit for bit (DESIGN.md
// §11.3). For any other G it is Gᵀ·y (Problem.G).
func (s *Scratch) mulVec(g *mat.Matrix, k int) {
	s.grad.Zero()
	mat.AddScaledRows(s.grad, g, s.supp[:k], s.vals[:k])
}

// project projects z in place onto spec, given the sum and count of its
// positives, and its last pass lists z's support in s.supp and s.vals, the
// rows of the next G·y, returning its length. That pass shifts the whole
// group's entries by the threshold, or, once gathered groups are written back,
// is the clamp, which keeps their entries (none is negative).
//
// With y non-nil, z is the step from y and x the iterate before it: the last
// pass also returns the residual max |z_i − y_i|·lip and the restart dot
// Σ (y_i − z_i)(z_i − x_i), and overwrites y with the extrapolation
// z + β(z − x), returning the sum and count of its positives for the next y.
func (s *Scratch) project(spec *GroupSpec, z mat.Vector, sum float64, m int, y, x mat.Vector, lip, beta float64) (k int, res, dot, ySum float64, yPos int) {
	theta, clamp := 0.0, true
	if w := s.proj.whole; w >= 0 {
		theta, clamp = threshold(z, spec.Budgets[w], sum, m, s.proj.set, false)
	} else {
		s.proj.groups(spec, z)
	}
	if y == nil {
		return support(z, s.supp, s.vals, theta, clamp), 0, 0, 0, 0
	}
	return lastPass(z, y, x, s.supp, s.vals, theta, clamp, lip, beta)
}
