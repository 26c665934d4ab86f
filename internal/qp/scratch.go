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

// mulVec sets grad = G·y: it lists y's non-zero entries and adds those rows
// of G to a zeroed grad in one mat.AddScaledRows call. Row j is read as
// column j, so for symmetric G — every GramCache matrix is mirrored exactly —
// grad[i] is the ascending sum Σ_j G_ij·y_j over y's support, and the terms
// MulVecTo adds besides are G_ij·(±0), zeros that leave a sum as it was (G
// finite): grad is MulVecTo's bit for bit (DESIGN.md §11.3). For any other G
// it is Gᵀ·y (Problem.G).
func (s *Scratch) mulVec(g *mat.Matrix, y mat.Vector) {
	k := 0
	for j, v := range y {
		if v != 0 {
			s.supp[k], s.vals[k] = j, v
			k++
		}
	}
	s.grad.Zero()
	mat.AddScaledRows(s.grad, g, s.supp[:k], s.vals[:k])
}
