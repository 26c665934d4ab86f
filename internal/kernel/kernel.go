// Package kernel provides the base kernels of kernelized PLOS and the
// feature map that hands a kernel problem to the linear trainer. The paper
// reduces the kernel case to the linear one "through feature mapping and
// the kernel as described in [33]"; Factorize makes that map concrete: a
// greedy pivoted-Cholesky factor L of the training Gram (L·Lᵀ = K up to
// rank MaxRank), whose rows are the samples' coordinates. internal/core's
// Algorithm 1 trains on those rows unchanged, and Factor.Coefficients turns
// a trained hyperplane back into kernel weights over the pivot samples
// (Fine & Scheinberg, JMLR 2001).
package kernel

import (
	"errors"
	"fmt"
	"math"

	"plos/internal/mat"
)

// Kernel is a positive-definite similarity k(x, y).
type Kernel interface{ Eval(x, y mat.Vector) float64 }

// Linear is the plain inner product; kernelized PLOS with Linear matches
// the linear trainer on the raw features (a cross-check the tests exploit).
type Linear struct{}

// Eval returns x·y.
func (Linear) Eval(x, y mat.Vector) float64 { return x.Dot(y) }

// RBF is the Gaussian kernel exp(−γ·||x−y||²).
type RBF struct {
	// Gamma is the inverse-width parameter; must be positive.
	Gamma float64
}

// Eval returns exp(−γ||x−y||²).
func (k RBF) Eval(x, y mat.Vector) float64 {
	return math.Exp(-k.Gamma * mat.SquaredDist(x, y))
}

// Polynomial is (x·y + c)^d.
type Polynomial struct {
	Degree int
	C      float64
}

// Eval returns (x·y + c)^degree.
func (k Polynomial) Eval(x, y mat.Vector) float64 {
	return math.Pow(x.Dot(y)+k.C, float64(k.Degree))
}

// MaxRank caps the rank of a Factor: past it the map is a low-rank
// approximation of the kernel, and the map's width, the factor's cost per
// sample and the model's pivot count stop growing with it.
const MaxRank = 256

// relTol is the residual diagonal, relative to the largest k(x, x), at
// which the factor counts the kernel as reproduced.
const relTol = 1e-10

// Factorize's refusals.
var (
	ErrZeroKernel = errors.New("kernel: zero on every sample")
	ErrNotPSD     = errors.New("kernel: not positive semidefinite on the samples")
)

// Factor is a greedy pivoted-Cholesky factor of the kernel matrix K over N
// samples: L·Lᵀ reproduces K to within relTol·max k(x, x) on the diagonal
// whenever the rank stays below MaxRank.
type Factor struct {
	// L is N×r: row i holds sample i's coordinates in the feature map.
	L *mat.Matrix
	// Pivots are the r pivot sample indices in pivot order. L's rows at
	// the pivots form a lower-triangular r×r block.
	Pivots []int
}

// Factorize factors the kernel matrix of samples. Each step takes the
// sample with the largest residual diagonal as the pivot (lowest index on
// ties), so the factor is sequential and the same on every run. It stops
// at MaxRank columns or once every residual is at most relTol·max k(x, x).
// It refuses a kernel that is zero on every sample (ErrZeroKernel), one
// whose residual diagonal goes below −relTol·max k(x, x) (ErrNotPSD) and
// a non-finite k(x, x).
func Factorize(samples []mat.Vector, k Kernel) (*Factor, error) {
	n := len(samples)
	d := make([]float64, n)
	var dmax float64
	for i, x := range samples {
		d[i] = k.Eval(x, x)
		if math.IsNaN(d[i]) || math.IsInf(d[i], 0) {
			return nil, fmt.Errorf("kernel: k(x, x) = %g at sample %d", d[i], i)
		}
		dmax = math.Max(dmax, d[i])
	}
	if dmax <= 0 {
		return nil, ErrZeroKernel
	}
	tol := relTol * dmax
	// Column j of L is cols[j*n:(j+1)*n]: stored as rows, the earlier
	// columns are one AddScaledRows away from the new one.
	cols := make([]float64, 0, min(n, MaxRank)*n)
	var pivots, idx []int
	var coef []float64
	for len(pivots) < MaxRank {
		p := 0
		for i := range d {
			if d[i] > d[p] {
				p = i
			}
		}
		if d[p] <= tol {
			break
		}
		j := len(pivots)
		cols = cols[:(j+1)*n]
		col := cols[j*n:]
		for i, x := range samples {
			col[i] = k.Eval(x, samples[p])
		}
		coef = coef[:0]
		for c := 0; c < j; c++ {
			coef = append(coef, -cols[c*n+p])
		}
		mat.AddScaledRows(col, &mat.Matrix{Rows: j, Cols: n, Data: cols[:j*n]}, idx, coef)
		// The earlier pivots are reproduced already and the pivot's own
		// entry is its residual: exact values keep the pivot block
		// triangular and its diagonal √d_p.
		for _, q := range pivots {
			col[q] = 0
		}
		col[p] = d[p]
		s := math.Sqrt(d[p])
		for i := range col {
			col[i] /= s
			if d[i] -= col[i] * col[i]; d[i] < -tol {
				return nil, fmt.Errorf("%w: residual %g at sample %d", ErrNotPSD, d[i], i)
			}
		}
		d[p] = 0
		pivots = append(pivots, p)
		idx = append(idx, j)
	}
	r := len(pivots)
	// Row-major L, one row at a time: the r column lines being read stay
	// in cache across eight consecutive rows.
	l := mat.NewMatrix(n, r)
	for i := 0; i < n; i++ {
		row := l.Data[i*r : (i+1)*r]
		for j := range row {
			row[j] = cols[j*n+i]
		}
	}
	return &Factor{L: l, Pivots: pivots}, nil
}

// Coefficients returns β = L_P⁻ᵀ·w, where L_P is the factor's pivot block:
// a hyperplane w over the feature map scores x as Σ_j β_j·k(x_{P_j}, x),
// which on a training sample is w·(its row of L).
func (f *Factor) Coefficients(w mat.Vector) mat.Vector {
	r := len(f.Pivots)
	beta := make(mat.Vector, r)
	for j := r - 1; j >= 0; j-- {
		s := w[j]
		for c := j + 1; c < r; c++ {
			s -= f.L.At(f.Pivots[c], j) * beta[c]
		}
		beta[j] = s / f.L.At(f.Pivots[j], j)
	}
	return beta
}

// PrincipalAxis returns the unit direction along which the rows of L vary
// most — kernel PCA's first component — by power iteration on their
// covariance LᵀL − N·μμᵀ from the all-ones start. It is the label-free
// CCCP init of a kernel problem: a coordinate axis of L follows the pivot
// order, not the data, and can cut straight through a cluster.
func (f *Factor) PrincipalAxis() mat.Vector {
	n, r := float64(f.L.Rows), f.L.Cols
	ones := mat.NewVector(f.L.Rows)
	for i := range ones {
		ones[i] = 1
	}
	mean := f.L.MulVecT(ones)
	mean.Scale(1 / n)
	v := mat.NewVector(r)
	for j := range v {
		v[j] = 1 / math.Sqrt(float64(r))
	}
	for it := 0; it < 100; it++ {
		next := f.L.MulVecT(f.L.MulVec(v))
		next.AddScaled(-n*mean.Dot(v), mean)
		norm := next.Norm2()
		if norm == 0 {
			break
		}
		next.Scale(1 / norm)
		moved := mat.SquaredDist(next, v)
		if v = next; moved <= 1e-18 {
			break
		}
	}
	return v
}
