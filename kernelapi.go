package plos

import (
	"errors"
	"fmt"
	"math"

	"plos/internal/core"
	"plos/internal/kernel"
	"plos/internal/mat"
	"plos/internal/svm"
)

// KernelSpec selects the kernel for TrainKernel. Construct with
// LinearKernel, RBFKernel, or PolyKernel.
type KernelSpec struct {
	k kernel.Kernel
}

// LinearKernel selects the plain inner product (TrainKernel then matches
// Train to rounding on any cohort with labels).
func LinearKernel() KernelSpec { return KernelSpec{k: kernel.Linear{}} }

// RBFKernel selects the Gaussian kernel exp(−γ||x−y||²); gamma must be
// finite and positive.
func RBFKernel(gamma float64) KernelSpec { return KernelSpec{k: kernel.RBF{Gamma: gamma}} }

// PolyKernel selects (x·y + c)^degree; degree must be at least 1 and c
// finite and non-negative.
func PolyKernel(degree int, c float64) KernelSpec {
	return KernelSpec{k: kernel.Polynomial{Degree: degree, C: c}}
}

// ErrBadKernel is returned for an unusable kernel specification.
var ErrBadKernel = errors.New("plos: invalid kernel specification")

// validate refuses the specs that are not kernels.
func (s KernelSpec) validate() error {
	switch k := s.k.(type) {
	case nil:
		return fmt.Errorf("%w: use LinearKernel/RBFKernel/PolyKernel", ErrBadKernel)
	case kernel.RBF:
		if !(k.Gamma > 0) || math.IsInf(k.Gamma, 1) {
			return fmt.Errorf("%w: RBF gamma %g must be finite and positive", ErrBadKernel, k.Gamma)
		}
	case kernel.Polynomial:
		if k.Degree < 1 || !(k.C >= 0) || math.IsInf(k.C, 1) {
			return fmt.Errorf("%w: polynomial degree %d must be at least 1 and c %g finite and non-negative",
				ErrBadKernel, k.Degree, k.C)
		}
	}
	return nil
}

// KernelModel is a trained kernelized PLOS model. Decision functions are
// kernel expansions over at most 256 pivot samples, which the model keeps:
// a linear Model over the vector of kernel values k(pivot_j, x).
type KernelModel struct {
	kern   kernel.Kernel
	pivots []mat.Vector // bias-augmented when bias is on
	bias   bool
	lin    *Model
}

// TrainKernel fits kernelized centralized PLOS — the paper's Algorithm 1
// run in the RKHS of the chosen kernel (its §IV remark made concrete). It
// factors the kernel matrix of the pooled training samples by greedy
// pivoted Cholesky and runs Train's solver on the factor's rows: the map is
// exact up to rank 256, and a low-rank approximation past it. Every Option
// means what it means for Train, and Stats are Train's. With LinearKernel
// it reproduces Train whenever some user has labels. Only centralized
// training is available: the feature map spans samples across users,
// which is exactly what the distributed design avoids shipping.
//
// A cohort in which nobody labels anything starts CCCP from the principal
// axis of the mapped samples (kernel PCA's first component), not from
// Train's label-free init, whose coordinate axis means nothing in the
// map: on two RBF clusters that axis cuts through a cluster, and the
// clustering then stays split even under WithBalanceGuard.
func TrainKernel(users []User, spec KernelSpec, opts ...Option) (*KernelModel, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	data, err := toUserData(users, o.bias)
	if err != nil {
		return nil, err
	}
	var samples []mat.Vector
	for _, u := range data {
		for i := 0; i < u.X.Rows; i++ {
			samples = append(samples, u.X.Row(i))
		}
	}
	f, err := kernel.Factorize(samples, spec.k)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadKernel, err)
	}
	r, at, labels := f.L.Cols, 0, 0
	mapped := make([]core.UserData, len(data))
	for t, u := range data {
		n := u.X.Rows
		mapped[t] = core.UserData{X: &mat.Matrix{Rows: n, Cols: r, Data: f.L.Data[at*r : (at+n)*r]}, Y: u.Y}
		at += n
		labels += len(u.Y)
	}
	if labels == 0 {
		o.core.InitW0 = f.PrincipalAxis()
	}
	lm, info, err := core.TrainCentralized(mapped, o.core)
	if err != nil {
		return nil, fmt.Errorf("plos: TrainKernel: %w", err)
	}
	w := make([]mat.Vector, len(lm.W))
	for t := range w {
		w[t] = f.Coefficients(lm.W[t])
	}
	m := &KernelModel{kern: spec.k, bias: o.bias,
		lin: &Model{model: &core.Model{W0: f.Coefficients(lm.W0), W: w}, info: info}}
	for _, p := range f.Pivots {
		m.pivots = append(m.pivots, samples[p].Clone())
	}
	return m, nil
}

// NumUsers returns the number of personalized functions.
func (m *KernelModel) NumUsers() int { return m.lin.NumUsers() }

// Predict classifies x with user t's personalized function.
func (m *KernelModel) Predict(t int, x []float64) float64 { return m.lin.Predict(t, m.kernelValues(x)) }

// Score returns user t's decision value on x.
func (m *KernelModel) Score(t int, x []float64) float64 { return m.lin.Score(t, m.kernelValues(x)) }

// PredictGlobal classifies x with the shared function (cold start).
func (m *KernelModel) PredictGlobal(x []float64) float64 {
	return m.lin.PredictGlobal(m.kernelValues(x))
}

// SupportSize returns how many training samples carry nonzero weight in
// user t's decision function.
func (m *KernelModel) SupportSize(t int) int {
	n := 0
	for _, b := range m.lin.model.W[t] {
		if b != 0 {
			n++
		}
	}
	return n
}

// Stats returns training diagnostics. Slice fields are copies — mutating
// them does not affect the model.
func (m *KernelModel) Stats() Stats { return m.lin.Stats() }

// kernelValues returns the vector k(pivot_j, x).
func (m *KernelModel) kernelValues(x []float64) []float64 {
	v := mat.Vector(x)
	if m.bias {
		v = svm.AugmentBiasVec(v)
	}
	out := make([]float64, len(m.pivots))
	for j, p := range m.pivots {
		out[j] = m.kern.Eval(p, v)
	}
	return out
}
