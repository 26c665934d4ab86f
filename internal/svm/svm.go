// Package svm implements a linear support-vector machine trained by dual
// coordinate descent (Hsieh et al., ICML 2008), the standard solver for
// linear SVMs when no numerical ecosystem is available.
//
// It solves the L1-loss dual
//
//	min_α ½ αᵀQα − eᵀα,  0 <= α_i <= C_i,  Q_ij = y_i y_j x_i·x_j
//
// maintaining w = Σ α_i y_i x_i so each coordinate update is O(d). The
// primal problem is min ½||w||² + Σ C_i max(0, 1 − y_i w·x_i), i.e. the
// paper's Eq. (1) with per-sample weights C_i = C/m.
//
// Bias handling follows the paper's footnote 1: callers who want an affine
// hyperplane append a constant-1 feature (see AugmentBias); the model itself
// is strictly homogeneous, w·x.
package svm

import (
	"errors"
	"fmt"
	"math"

	"plos/internal/mat"
	"plos/internal/rng"
)

// Params configures training. The zero value is completed by defaults:
// C=1, Tol=1e-4, MaxEpochs=1000.
type Params struct {
	// C is the misclassification weight applied to every sample. If
	// PerSampleC is set it takes precedence.
	C float64
	// PerSampleC optionally gives each sample its own box bound C_i
	// (e.g. Cl/m for labeled vs Cu/m for unlabeled in PLOS-style losses).
	PerSampleC []float64
	// Tol is the stopping threshold on the maximal projected-gradient
	// violation across an epoch.
	Tol float64
	// MaxEpochs bounds the number of passes over the data.
	MaxEpochs int
	// Seed drives the per-epoch coordinate permutation.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.C <= 0 {
		p.C = 1
	}
	if p.Tol <= 0 {
		p.Tol = 1e-4
	}
	if p.MaxEpochs <= 0 {
		p.MaxEpochs = 1000
	}
	return p
}

// Model is a trained linear classifier: Score(x) = W·x, Predict = sign.
type Model struct {
	W mat.Vector
}

// Info reports training diagnostics.
type Info struct {
	Epochs       int
	Converged    bool
	MaxViolation float64
}

// Errors returned by Train.
var (
	ErrNoData        = errors.New("svm: no training samples")
	ErrSingleClass   = errors.New("svm: training data contains a single class")
	ErrBadLabel      = errors.New("svm: labels must be -1 or +1")
	ErrShapeMismatch = errors.New("svm: rows of X and labels differ in count")
)

// Train fits a linear SVM on the rows of x with labels y in {-1, +1}.
func Train(x *mat.Matrix, y []float64, p Params) (*Model, Info, error) {
	if x.Rows == 0 {
		return nil, Info{}, ErrNoData
	}
	if x.Rows != len(y) {
		return nil, Info{}, fmt.Errorf("%w: %d vs %d", ErrShapeMismatch, x.Rows, len(y))
	}
	var pos, neg bool
	for _, yi := range y {
		switch yi {
		case 1:
			pos = true
		case -1:
			neg = true
		default:
			return nil, Info{}, fmt.Errorf("%w: got %g", ErrBadLabel, yi)
		}
	}
	if !pos || !neg {
		return nil, Info{}, ErrSingleClass
	}
	p = p.withDefaults()
	if p.PerSampleC != nil && len(p.PerSampleC) != x.Rows {
		return nil, Info{}, fmt.Errorf("%w: PerSampleC has %d entries for %d samples",
			ErrShapeMismatch, len(p.PerSampleC), x.Rows)
	}

	n, d := x.Rows, x.Cols
	alpha := make(mat.Vector, n)
	w := make(mat.Vector, d)
	qii := make(mat.Vector, n) // diagonal of Q
	for i := 0; i < n; i++ {
		qii[i] = x.Row(i).SquaredNorm()
	}
	boxOf := func(i int) float64 {
		if p.PerSampleC != nil {
			return p.PerSampleC[i]
		}
		return p.C
	}

	g := rng.New(p.Seed)
	info := Info{}
	for epoch := 0; epoch < p.MaxEpochs; epoch++ {
		info.Epochs = epoch + 1
		maxViolation := 0.0
		for _, i := range g.Perm(n) {
			ci := boxOf(i)
			if ci <= 0 || qii[i] == 0 {
				continue
			}
			xi := x.Row(i)
			grad := y[i]*w.Dot(xi) - 1 // ∂/∂α_i of the dual
			// Projected-gradient violation at the box.
			pg := grad
			switch {
			case alpha[i] <= 0 && grad >= 0:
				pg = 0
			case alpha[i] >= ci && grad <= 0:
				pg = 0
			}
			if v := math.Abs(pg); v > maxViolation {
				maxViolation = v
			}
			if pg == 0 {
				continue
			}
			old := alpha[i]
			ai := old - grad/qii[i]
			if ai < 0 {
				ai = 0
			} else if ai > ci {
				ai = ci
			}
			alpha[i] = ai
			if delta := (ai - old) * y[i]; delta != 0 {
				w.AddScaled(delta, xi)
			}
		}
		info.MaxViolation = maxViolation
		if maxViolation <= p.Tol {
			info.Converged = true
			break
		}
	}
	return &Model{W: w}, info, nil
}

// Score returns the signed margin W·x.
func (m *Model) Score(x mat.Vector) float64 { return m.W.Dot(x) }

// Predict returns the class label sign(W·x), with ties broken toward +1.
func (m *Model) Predict(x mat.Vector) float64 {
	if m.Score(x) >= 0 {
		return 1
	}
	return -1
}

// PredictAll classifies every row of x.
func (m *Model) PredictAll(x *mat.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		out[i] = m.Predict(x.Row(i))
	}
	return out
}

// AugmentBias returns a copy of x with a constant-1 column appended, turning
// the homogeneous hyperplane w·x into an affine one (paper footnote 1).
func AugmentBias(x *mat.Matrix) *mat.Matrix {
	out := mat.NewMatrix(x.Rows, x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		copy(out.Data[i*out.Cols:], x.Data[i*x.Cols:(i+1)*x.Cols])
		out.Data[i*out.Cols+x.Cols] = 1
	}
	return out
}

// AugmentBiasVec appends a constant 1 to a single feature vector.
func AugmentBiasVec(x mat.Vector) mat.Vector {
	out := make(mat.Vector, len(x)+1)
	copy(out, x)
	out[len(x)] = 1
	return out
}
