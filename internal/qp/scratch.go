package qp

import "plos/internal/mat"

// Scratch holds everything a solve needs besides its inputs — the FISTA
// iterates (x, y, grad, xNext) and the projection's buffers — so callers that
// solve a sequence of related problems (cutting-plane rounds, ADMM
// x-updates) allocate nothing per solve. The zero value is ready to use;
// buffers grow on demand and are reused.
//
// A Scratch is owned by one solving goroutine at a time: it is not safe for
// concurrent solves. Scratch.Solve hands back its own solution buffer; Solve
// with Options.Scratch copies it out.
type Scratch struct {
	x, y, grad, xNext mat.Vector
	proj              projector
}

// grow re-slices every buffer to length n, reallocating when too small.
// Iterate contents are undefined; the coverage mask is cleared.
func (s *Scratch) grow(n int) {
	if cap(s.x) < n {
		s.x = make(mat.Vector, n)
		s.y = make(mat.Vector, n)
		s.grad = make(mat.Vector, n)
		s.xNext = make(mat.Vector, n)
		s.proj.covered = make([]bool, n)
	}
	s.x, s.y, s.grad, s.xNext = s.x[:n], s.y[:n], s.grad[:n], s.xNext[:n]
	s.proj.covered = s.proj.covered[:n]
	clear(s.proj.covered)
	s.proj.grow(n)
}
