package qp

import "plos/internal/mat"

// Scratch holds everything a solve needs besides its inputs — the FISTA
// iterates (x, y, grad, xNext), the support of y and the projection's
// buffers — so callers that solve a sequence of related problems
// (cutting-plane rounds, ADMM x-updates) allocate nothing per solve. The zero
// value is ready to use; buffers grow on demand and are reused.
//
// A Scratch is owned by one solving goroutine at a time: it is not safe for
// concurrent solves. Scratch.Solve hands back its own solution buffer; Solve
// with Options.Scratch copies it out.
type Scratch struct {
	x, y, grad, xNext mat.Vector
	supp              []int
	proj              projector
}

// grow re-slices every buffer to length n (the support to n/2), reallocating
// when too small. Iterate contents are undefined; the coverage mask is
// cleared.
func (s *Scratch) grow(n int) {
	if cap(s.x) < n {
		s.x = make(mat.Vector, n)
		s.y = make(mat.Vector, n)
		s.grad = make(mat.Vector, n)
		s.xNext = make(mat.Vector, n)
		s.supp = make([]int, n/2)
		s.proj.covered = make([]bool, n)
	}
	s.x, s.y, s.grad, s.xNext = s.x[:n], s.y[:n], s.grad[:n], s.xNext[:n]
	s.supp = s.supp[:n/2]
	s.proj.covered = s.proj.covered[:n]
	clear(s.proj.covered)
	s.proj.grow(n)
}

// mulVec sets grad = G·y. While at most half of y is non-zero, row i's sum
// runs over y's support alone, ascending, four rows at a time: the terms
// MulVecTo adds besides are G_ij·(±0), zeros that leave a sum as it was (G
// finite), so grad is MulVecTo's bit for bit (DESIGN.md §11.3).
func (s *Scratch) mulVec(g *mat.Matrix, y mat.Vector) {
	n, supp := len(y), s.supp[:0:len(s.supp)]
	for j, v := range y {
		if v == 0 {
			continue
		}
		if len(supp) == cap(supp) { // more than half: the dense product
			g.MulVecTo(s.grad, y)
			return
		}
		supp = append(supp, j)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		d := g.Data[i*n : (i+4)*n]
		var s0, s1, s2, s3 float64
		for _, j := range supp {
			s0 += d[j] * y[j]
			s1 += d[n+j] * y[j]
			s2 += d[2*n+j] * y[j]
			s3 += d[3*n+j] * y[j]
		}
		s.grad[i], s.grad[i+1], s.grad[i+2], s.grad[i+3] = s0, s1, s2, s3
	}
	for ; i < n; i++ {
		var sum float64
		for _, j := range supp {
			sum += g.Data[i*n+j] * y[j]
		}
		s.grad[i] = sum
	}
}
