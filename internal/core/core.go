package core

import (
	"errors"
	"fmt"
	"time"

	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/parallel"
)

// UserData is one user's dataset: the rows of X are the samples x_it, and
// the first len(Y) rows are labeled with Y values in {-1, +1}. A user with
// len(Y) == 0 contributes only unlabeled structure (l_t = 0 in the paper).
type UserData struct {
	X *mat.Matrix
	Y []float64
}

// NumLabeled returns l_t.
func (u UserData) NumLabeled() int { return len(u.Y) }

// NumSamples returns m_t.
func (u UserData) NumSamples() int { return u.X.Rows }

// Config holds the PLOS hyperparameters and solver knobs. Zero fields are
// replaced by defaults (see WithDefaults); the paper selects Lambda, Cl, Cu
// by leave-one-out cross-validation (internal/eval provides the harness).
type Config struct {
	// Lambda controls personalization: large values pull every w_t toward
	// w0 ("All"-like), small values let users rely on their own data
	// ("Single"-like). Paper Fig. 7 peaks near log10(λ)=2.
	Lambda float64
	// Cl and Cu weight the losses of labeled and unlabeled samples.
	// Cu == 0 selects the default (0.2); pass any negative value to train
	// with the unlabeled term disabled entirely (the Cu=0 ablation).
	Cl, Cu float64
	// Epsilon is the cutting-plane tolerance ε of Eq. (15).
	Epsilon float64
	// CCCPTol is the relative objective-change threshold ending CCCP.
	CCCPTol float64
	// MaxCCCPIter and MaxCutIter bound the outer loops.
	MaxCCCPIter int
	MaxCutIter  int
	// QPMaxIter bounds the inner projected-gradient QP iterations.
	QPMaxIter int
	// WarmWorkingSets keeps each user's Ω_t across CCCP rounds instead of
	// resetting it (the paper's Algorithm 1 resets; warm sets are an
	// ablation that trades fidelity for speed).
	WarmWorkingSets bool
	// BalanceGuard prevents degenerate max-margin clustering for users
	// with no labels: if a CCCP sign refresh would put every unlabeled
	// sample of a zero-label user on one side, the lowest-|margin| half
	// stays on the other side. Off by default (faithful to the paper).
	BalanceGuard bool
	// InitW0 optionally fixes the CCCP starting hyperplane. When nil, w0
	// is initialized by strongly regularized ridge regression toward the
	// pooled labels (falling back to the dominant-variance axis when no
	// labels exist); see initialW0 for why not a max-margin init.
	InitW0 mat.Vector
	// Workers bounds the solver's per-user fan-out (constraint search,
	// Gram construction): 0 means runtime.GOMAXPROCS(0), 1 is strictly
	// sequential. Any value yields bit-identical models — all reductions
	// are index-ordered (see internal/parallel).
	Workers int
	// RebuildGram disables the incremental restricted-QP cache (DESIGN.md
	// §11): every cut round rebuilds the dual Gram, linear term and
	// Gershgorin bound from scratch instead of growing the cached ones.
	// Output is bit-identical either way (test-pinned); this knob exists
	// for the property tests and the BenchmarkCutRound before/after.
	RebuildGram bool
	// Seed drives the deterministic internal randomness.
	Seed int64
	// Obs, when non-nil, receives solver metrics and flight records
	// (internal/obs). Strictly observational: the trained model is
	// bit-identical with observation on or off.
	Obs *obs.Registry
}

// WithDefaults fills the zero fields with the documented defaults. Exported
// because the wire protocol (internal/protocol), which forwards these values
// to devices, shares the one table.
func (c Config) WithDefaults() Config {
	if c.Lambda <= 0 {
		c.Lambda = 100
	}
	if c.Cl <= 0 {
		c.Cl = 1
	}
	if c.Cu < 0 {
		c.Cu = 0
	} else if c.Cu == 0 {
		c.Cu = 0.2
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-3
	}
	if c.CCCPTol <= 0 {
		c.CCCPTol = 1e-3
	}
	if c.MaxCCCPIter <= 0 {
		c.MaxCCCPIter = 20
	}
	if c.MaxCutIter <= 0 {
		c.MaxCutIter = 60
	}
	if c.QPMaxIter <= 0 {
		c.QPMaxIter = 5000
	}
	return c
}

// Model is a trained PLOS model: the global hyperplane and one personalized
// hyperplane per training user (same order as the training slice).
type Model struct {
	W0 mat.Vector
	W  []mat.Vector
}

// PredictUser classifies x with user t's personalized hyperplane.
func (m *Model) PredictUser(t int, x mat.Vector) float64 {
	if m.W[t].Dot(x) >= 0 {
		return 1
	}
	return -1
}

// ScoreUser returns user t's signed margin on x.
func (m *Model) ScoreUser(t int, x mat.Vector) float64 { return m.W[t].Dot(x) }

// PredictGlobal classifies x with the shared hyperplane w0 — the model
// applied to a user unseen at training time (cold start).
func (m *Model) PredictGlobal(x mat.Vector) float64 {
	if m.W0.Dot(x) >= 0 {
		return 1
	}
	return -1
}

// NumUsers returns the number of personalized hyperplanes.
func (m *Model) NumUsers() int { return len(m.W) }

// TrainInfo reports solver diagnostics common to both training modes.
type TrainInfo struct {
	CCCPIterations int
	CCCPConverged  bool
	Objective      float64
	CutRounds      int // total cutting-plane rounds across CCCP rounds
	Constraints    int // final total working-set size across users
	QPIterations   int // cumulative inner QP iterations (centralized)
	ADMMIterations int // cumulative ADMM iterations (distributed); folded solves only for the async trainer
	// AsyncSweepSolves counts the final-synchronous-sweep re-solves that
	// close each asynchronous CCCP round — bookkeeping solves that are
	// never folded into the consensus, reported separately so
	// ADMMIterations means the same thing it does for the synchronous
	// trainer. Zero outside TrainAsync.
	AsyncSweepSolves int
	// ADMMPrimal and ADMMDual are the residuals of the final ADMM round
	// (paper Eq. 24); zero for the centralized trainer.
	ADMMPrimal, ADMMDual float64
	ObjectiveHistory     []float64
	// CommRawBytes and CommCompBytes account the parameter payloads that
	// crossed the simulated server↔device boundary when DistConfig.Compress
	// is enabled: the dense-equivalent bytes and the codec-v4 encoded bytes.
	// Both are zero when compression is off (and for the centralized
	// trainer, where nothing crosses a boundary).
	CommRawBytes  int64
	CommCompBytes int64
	// CompressEFNorm is the L2 norm across users and slots of the
	// error-feedback residuals left in the encoders when training ends — a
	// bounded, deterministic measure of the information compression is
	// still holding back.
	CompressEFNorm float64
	// Where TrainDistributed's ADMM time went, summed over every iteration
	// of every CCCP round (admm.RunInfo reads the clock): SolveTime is all
	// device solves, SlowestSolveTime each iteration's slowest one — the
	// wait of a fleet that solves side by side — and FoldTime the server's
	// consensus steps. Zero for every other trainer.
	SolveTime, SlowestSolveTime, FoldTime time.Duration
}

// Validation errors.
var (
	ErrNoUsers       = errors.New("core: no users")
	ErrEmptyUser     = errors.New("core: user has no samples")
	ErrDimMismatch   = errors.New("core: users have inconsistent feature dimensions")
	ErrBadLabel      = errors.New("core: labels must be -1 or +1")
	ErrTooManyLabels = errors.New("core: user has more labels than samples")
)

func validateUsers(users []UserData) (dim int, err error) {
	if len(users) == 0 {
		return 0, ErrNoUsers
	}
	dim = -1
	for t, u := range users {
		if u.X == nil || u.X.Rows == 0 {
			return 0, fmt.Errorf("%w (user %d)", ErrEmptyUser, t)
		}
		if dim == -1 {
			dim = u.X.Cols
		} else if u.X.Cols != dim {
			return 0, fmt.Errorf("%w: user %d has %d features, user 0 has %d",
				ErrDimMismatch, t, u.X.Cols, dim)
		}
		if len(u.Y) > u.X.Rows {
			return 0, fmt.Errorf("%w: user %d has %d labels for %d samples",
				ErrTooManyLabels, t, len(u.Y), u.X.Rows)
		}
		for i, y := range u.Y {
			if y != 1 && y != -1 {
				return 0, fmt.Errorf("%w: user %d sample %d has label %g", ErrBadLabel, t, i, y)
			}
		}
	}
	return dim, nil
}

// initialW0 produces the CCCP starting point: a strongly regularized ridge
// regression toward the pooled labels when any exist, otherwise a
// deterministic unit vector along the pooled data's dominant coordinate.
//
// Ridge rather than a pooled SVM because the init's only role is the
// polarity of the CCCP sign freeze, and at the paper's label scarcity
// (a handful of labels, 10% of them flipped) a max-margin fit happily
// inverts to satisfy one mislabeled outlier, after which the frozen
// unlabeled signs lock the inversion in. Heavily regularized ridge tends to
// the class-centroid difference, which a single flipped label cannot flip.
func initialW0(users []UserData, dim int, cfg Config) mat.Vector {
	if cfg.InitW0 != nil {
		return cfg.InitW0.Clone()
	}
	var rows int
	for _, u := range users {
		rows += len(u.Y)
	}
	if rows > 0 {
		x := mat.NewMatrix(rows, dim)
		y := make([]float64, 0, rows)
		at := 0
		for _, u := range users {
			for i := range u.Y {
				copy(x.Data[at*dim:(at+1)*dim], u.X.Data[i*u.X.Cols:(i+1)*u.X.Cols])
				at++
			}
			y = append(y, u.Y...)
		}
		if w, err := ridgeTowardOn(x, y, cfg.Workers); err == nil {
			return w
		}
	}
	// No usable labels: deterministic fallback — the axis with the largest
	// pooled variance, so sign(w·x) splits the data nontrivially.
	varByDim := make(mat.Vector, dim)
	mean := make(mat.Vector, dim)
	var n float64
	for _, u := range users {
		for i := 0; i < u.X.Rows; i++ {
			mean.Add(u.X.Row(i))
			n++
		}
	}
	mean.Scale(1 / n)
	for _, u := range users {
		for i := 0; i < u.X.Rows; i++ {
			row := u.X.Row(i)
			for j := 0; j < dim; j++ {
				d := row[j] - mean[j]
				varByDim[j] += d * d
			}
		}
	}
	_, j := varByDim.Max()
	w := mat.NewVector(dim)
	if j >= 0 {
		w[j] = 1
	}
	return w
}

// ridgeToward solves the strongly regularized least squares
// (XᵀX + εI) w = Xᵀy with ε = trace(XᵀX)/d, a noise-robust direction
// between the class-centroid difference (ε → ∞) and ordinary least squares.
//
// It solves in whichever dimension of X is smaller. With n ≥ d rows it
// factors the d×d system above. With n < d — a device joining with a
// handful of labels in a wide feature space — it uses the identity
// (XᵀX + εI)⁻¹Xᵀ = Xᵀ(XXᵀ + εI)⁻¹: factor the n×n kernel K = XXᵀ + εI,
// solve Kα = y and return w = Xᵀα, O(n²d + n³) instead of O(nd² + d³).
// ε is the same number either way because trace(XᵀX) = trace(XXᵀ) = ‖X‖_F².
// The two forms agree to rounding, not bitwise, so the choice depends on
// the shape alone and every caller with the same input gets the same bits.
func ridgeToward(x *mat.Matrix, y []float64) (mat.Vector, error) {
	return ridgeTowardOn(x, y, 1)
}

// ridgeTowardOn is ridgeToward with the n×n kernel's rows filled across
// workers (the pooled init's kernel, which no other work overlaps), the same
// bits for any count.
func ridgeTowardOn(x *mat.Matrix, y []float64, workers int) (mat.Vector, error) {
	n, d := x.Rows, x.Cols
	if n < d {
		var k *mat.Matrix // XXᵀ
		if parallel.Workers(workers) == 1 {
			k = x.Gram()
		} else {
			k = gramOn(*x, workers)
		}
		eps := k.Trace()/float64(d) + 1e-9
		for i := 0; i < n; i++ {
			k.Data[i*n+i] += eps
		}
		alpha, err := mat.SolveSPD(k, y[:n])
		if err != nil {
			return nil, err
		}
		return x.MulVecT(alpha), nil
	}
	gram := mat.NewMatrix(d, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for a := 0; a < d; a++ {
			if row[a] == 0 {
				continue
			}
			ga := gram.Data[a*d:]
			for b := 0; b < d; b++ {
				ga[b] += float64(row[a] * row[b])
			}
		}
	}
	eps := gram.Trace()/float64(d) + 1e-9
	for a := 0; a < d; a++ {
		gram.Data[a*d+a] += eps
	}
	rhs := mat.NewVector(d)
	for i := 0; i < x.Rows; i++ {
		rhs.AddScaled(y[i], x.Row(i))
	}
	return mat.SolveSPD(gram, rhs)
}

// gramOn is x.Gram() with its rows filled across workers, four rows per task:
// each task is Gram's own GramRows tile, so the kernel is the same bits for
// any count. x comes by value, so the pool's closure moves this copy to the
// heap, not the caller's header (a device's LocalInit views its labeled
// prefix in place).
func gramOn(x mat.Matrix, workers int) *mat.Matrix {
	k := mat.NewMatrix(x.Rows, x.Rows)
	parallel.Do(workers, (x.Rows+3)/4, func(b int) { x.GramRows(k, 4*b, min(4*b+4, x.Rows)) })
	k.MirrorLower()
	return k
}
