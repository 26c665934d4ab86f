package mat

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes the full eigendecomposition of a symmetric matrix using
// the cyclic Jacobi method. It returns the eigenvalues in ascending order
// and a matrix whose COLUMNS are the corresponding orthonormal eigenvectors.
//
// Jacobi is O(n^3) per sweep with typically <= ~12 sweeps; the matrices this
// repository diagonalizes (spectral-clustering Laplacians over tens of
// users, covariance matrices over feature dimensions) are small enough that
// robustness beats speed.
func EigenSym(a *Matrix) (Vector, *Matrix, error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("mat: EigenSym: matrix not square (%dx%d)", a.Rows, a.Cols)
	}
	const symTol = 1e-8
	if !a.IsSymmetric(symTol * (1 + a.FrobeniusNorm())) {
		return nil, nil, fmt.Errorf("mat: EigenSym: matrix not symmetric within tolerance")
	}
	n := a.Rows
	w := a.Clone() // working copy, driven to diagonal form
	v := Identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Rotation angle from the standard stable formulas.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}

	// Extract eigenvalues and sort ascending, permuting eigenvectors along.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{w.At(i, i), i}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].val < pairs[j].val })

	vals := make(Vector, n)
	vecs := NewMatrix(n, n)
	for k, p := range pairs {
		vals[k] = p.val
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, p.idx))
		}
	}
	return vals, vecs, nil
}

// rotate applies the Jacobi rotation J(p,q,c,s) to w (two-sided) and
// accumulates it into v (one-sided).
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, float64(c*wip)-float64(s*wiq))
		w.Set(i, q, float64(s*wip)+float64(c*wiq))
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, float64(c*wpj)-float64(s*wqj))
		w.Set(q, j, float64(s*wpj)+float64(c*wqj))
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, float64(c*vip)-float64(s*viq))
		v.Set(i, q, float64(s*vip)+float64(c*viq))
	}
}

func offDiagNorm(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if i != j {
				s += float64(a.At(i, j) * a.At(i, j))
			}
		}
	}
	return math.Sqrt(s)
}

// MaxEigenvalueUpperBound returns a cheap upper bound on the largest
// eigenvalue of a symmetric matrix via the Gershgorin circle theorem.
// The QP solver uses it as a Lipschitz constant for its gradient steps.
func MaxEigenvalueUpperBound(a *Matrix) float64 {
	if a.Rows != a.Cols {
		panic("mat: MaxEigenvalueUpperBound: matrix not square")
	}
	bound := math.Inf(-1)
	for i := 0; i < a.Rows; i++ {
		var radius float64
		for j := 0; j < a.Cols; j++ {
			if i != j {
				radius += math.Abs(a.At(i, j))
			}
		}
		if c := a.At(i, i) + radius; c > bound {
			bound = c
		}
	}
	if a.Rows == 0 {
		return 0
	}
	return bound
}
