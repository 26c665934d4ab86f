package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of A = L Lᵀ.
type CholeskyFactor struct {
	l *Matrix // lower triangular, n x n
}

// Cholesky computes the Cholesky factorization of the symmetric
// positive-definite matrix a. Only the lower triangle of a is read.
func Cholesky(a *Matrix) (*CholeskyFactor, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Cholesky: matrix not square (%dx%d)", a.Rows, a.Cols)
	}
	// Every sum below must run over k ascending: downstream models are
	// pinned to the bits of this factor (TestCholeskyBitIdenticalToAtSet).
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		lj := l.Data[j*n : j*n+j]
		d := a.Data[j*n+j]
		for _, v := range lj {
			d -= float64(v * v)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
		}
		ljj := math.Sqrt(d)
		l.Data[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			li := l.Data[i*n : i*n+j]
			s := a.Data[i*n+j]
			for k, v := range li {
				s -= float64(v * lj[k])
			}
			l.Data[i*n+j] = s / ljj
		}
	}
	return &CholeskyFactor{l: l}, nil
}

// L returns a copy of the lower-triangular factor.
func (c *CholeskyFactor) L() *Matrix { return c.l.Clone() }

// Solve solves A x = b given the factorization A = L Lᵀ.
func (c *CholeskyFactor) Solve(b Vector) Vector {
	n := c.l.Rows
	checkLen("CholeskyFactor.Solve", len(b), n)
	l := c.l.Data
	// Forward substitution: L y = b.
	y := make(Vector, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range l[i*n : i*n+i] {
			s -= float64(v * y[k])
		}
		y[i] = s / l[i*n+i]
	}
	// Back substitution: Lᵀ x = y, down column i of L.
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(l[k*n+i] * x[k])
		}
		x[i] = s / l[i*n+i]
	}
	return x
}

// SolveSPD solves A x = b for symmetric positive-definite A in one call.
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	f, err := Cholesky(a)
	if err != nil {
		return nil, fmt.Errorf("mat: SolveSPD: %w", err)
	}
	return f.Solve(b), nil
}
