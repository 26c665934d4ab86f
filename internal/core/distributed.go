package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"plos/internal/admm"
	"plos/internal/compress"
	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/optimize"
	"plos/internal/qp"
)

// DistConfig holds the ADMM-specific knobs of distributed PLOS. The zero
// value reproduces the paper's §VI-E setup: ρ = 1, ε_abs = 1e-3.
type DistConfig struct {
	Rho         float64
	EpsAbs      float64
	MaxADMMIter int
	// Workers bounds the concurrent per-device local solves: 0 means
	// runtime.GOMAXPROCS(0), 1 is strictly sequential. The trained model
	// is bit-identical for any value (index-ordered consensus folds).
	Workers int
	// Compress, when enabled, makes the in-process trainer push every
	// parameter vector crossing the server↔device boundary — z and u on
	// the way down, w and v on the way up — through a per-user codec-v4
	// encoder/decoder pair (internal/compress), error feedback included:
	// the same pairs per slot and the same byte accounting (TrainInfo's
	// CommRawBytes, CommCompBytes, CompressEFNorm) as the transport wrapper
	// applies to MsgParams/MsgUpdate on the wire. The model is not a
	// compressed wire run's: the wire plane starts from the federated init
	// and warm-starts z and u across CCCP rounds, this trainer pools its
	// init and starts every round's ADMM from zero. The real wire path
	// (Serve/Join) compresses in the connection stack instead and must
	// leave this zero.
	Compress compress.Config
}

// WithDefaults fills the zero fields with the documented defaults. Exported
// because the wire protocol (internal/protocol) runs the same ADMM under the
// same table.
func (d DistConfig) WithDefaults() DistConfig {
	if d.Rho <= 0 {
		d.Rho = 1
	}
	if d.EpsAbs <= 0 {
		d.EpsAbs = 1e-3
	}
	if d.MaxADMMIter <= 0 {
		d.MaxADMMIter = 150
	}
	return d
}

// Worker is one user's device-side state in distributed PLOS. It owns the
// raw data (which never leaves the worker), the local cutting-plane working
// set Ω_t, and the CCCP-frozen effective labels. Workers are driven either
// by the in-process trainer (TrainDistributed) or by the wire protocol
// (internal/transport + the plos-client binary).
type Worker struct {
	data       UserData
	cfg        Config
	totalUsers int
	// user is the device's population index for trace attribution (-1 until
	// SetUser; never read by the solver math).
	user int

	// set is Ω_t and space the arithmetic of its cut rounds, chosen once from
	// the data shape: a cut's Constraint.A is its aggregate A_k ∈ ℝ^d in the
	// feature space (m ≥ d), its row coefficients g_k ∈ ℝ^m with A_k = Xᵀg_k
	// in the row space (m < d). C_k and the key are the same in either.
	set   optimize.WorkingSet
	space cutSpace
	// signs holds the current effective labels, nil until RefreshSigns;
	// spare is the previous round's buffer, which the next refresh fills.
	signs, spare []float64
	weights      []float64
	alpha        mat.Vector // warm-start duals aligned with set
	// cutRounds accumulates local cutting-plane rounds across Solve calls
	// (folded into TrainInfo.CutRounds by the trainers).
	cutRounds int
	// stats accumulates the most recent Solve's solver counts; pendingFlips
	// holds the last RefreshSigns flip count until TakeSolveStats consumes
	// it. Both feed the telemetry piggyback and never touch the math.
	stats        SolveStats
	pendingFlips int

	// Incremental local-dual cache (DESIGN.md §11): the working set only
	// appends between resets, so the Gram A·Aᵀ/ρ̃ and its Gershgorin bound
	// persist across cut rounds AND across the ADMM rounds of one CCCP
	// round, growing by the newly added constraints only. A set reset
	// (generation change), a ρ̃ change, or Config.RebuildGram rebuilds it.
	gram    qp.GramCache
	gramGen uint64
	gramRho float64
	cvec    mat.Vector
	idx     []int      // 0, 1, 2, … — the dual's single group is a prefix
	groups  [1][]int   // {idx[:n]} and {1}: the GroupSpec's backing, so
	budgets [1]float64 // building the problem allocates nothing
	scratch qp.Scratch

	// b = w0 − u, w and v are d-vectors; p = Σ α_k·image_k/ρ̃, a round's
	// move off its base point, has the space's length (d, or m). All are the
	// worker's own, so a solve that adds no cut allocates nothing. Solve
	// lends w and v to its caller.
	b, p, w, v mat.Vector
	xi         float64
}

// NewWorker validates the user's data and prepares device-side state.
// totalUsers is T, needed for the λ/T coupling strength.
func NewWorker(data UserData, totalUsers int, cfg Config) (*Worker, error) {
	if _, err := validateUsers([]UserData{data}); err != nil {
		return nil, err
	}
	if totalUsers <= 0 {
		return nil, fmt.Errorf("core: NewWorker: totalUsers must be positive, got %d", totalUsers)
	}
	cfg = cfg.WithDefaults()
	m := data.NumSamples()
	weights := make([]float64, m)
	for i := 0; i < m; i++ {
		if i < data.NumLabeled() {
			weights[i] = cfg.Cl / float64(m)
		} else {
			weights[i] = cfg.Cu / float64(m)
		}
	}
	wk := &Worker{
		data:       data,
		cfg:        cfg,
		totalUsers: totalUsers,
		user:       -1,
		weights:    weights,
		budgets:    [1]float64{1},
		b:          mat.NewVector(data.X.Cols),
		w:          mat.NewVector(data.X.Cols),
		v:          mat.NewVector(data.X.Cols),
	}
	wk.inSpace(m < data.X.Cols)
	return wk, nil
}

// inSpace sets the space the worker's cut rounds run in: the row space when
// row is set, the feature space otherwise. NewWorker picks the row space
// exactly when the user has fewer rows than features.
func (wk *Worker) inSpace(row bool) {
	x := wk.data.X
	if row {
		wk.space = newRowSpace(x)
		wk.p = mat.NewVector(x.Rows)
	} else {
		wk.space = &featureSpace{x: x, w: wk.w}
		wk.p = mat.NewVector(x.Cols)
	}
}

// SetUser records the device's population index for trace attribution
// (cut-round flight records). Purely observational.
func (wk *Worker) SetUser(t int) { wk.user = t }

// SolveStats are the solver-side counts of the most recent Solve call plus
// the effective-label flips of the most recent RefreshSigns — the
// device-local half of the telemetry piggyback.
type SolveStats struct {
	QPIters  int64
	Cuts     int64
	WarmHits int64
	// SignFlips is consumed on read: reported once per CCCP round.
	SignFlips int
}

// TakeSolveStats returns the most recent Solve's stats and consumes the
// pending sign-flip count (so flips are reported exactly once per refresh).
func (wk *Worker) TakeSolveStats() SolveStats {
	s := wk.stats
	s.SignFlips = wk.pendingFlips
	wk.pendingFlips = 0
	return s
}

// RefreshSigns starts a CCCP round on the device: effective labels of
// unlabeled samples are frozen at sign(w_t·x) of the current personalized
// hyperplane (initialized from w0 on the first round). It resets the
// working set unless the configuration keeps warm sets. The return value is
// the number of effective labels that flipped relative to the previous
// round (0 on the first refresh) — the device-local convergence signal of
// the CCCP linearization; callers free to ignore it.
func (wk *Worker) RefreshSigns(w0 mat.Vector) int {
	ref := wk.w
	if ref.Norm2() == 0 {
		ref = w0
	}
	m := wk.data.NumSamples()
	eff := wk.spare
	if eff == nil {
		eff = make([]float64, m)
	}
	lt := wk.data.NumLabeled()
	copy(eff, wk.data.Y[:lt])
	unlabeledSigns(eff[lt:m], wk.data.X, lt, ref)
	if wk.cfg.BalanceGuard && lt == 0 && m > 1 {
		balanceSigns(wk.data.X, eff, ref)
	}
	flips := 0
	if wk.signs != nil {
		for i, s := range eff {
			if s != wk.signs[i] {
				flips++
			}
		}
	}
	wk.signs, wk.spare = eff, wk.signs
	wk.pendingFlips = flips
	if !wk.cfg.WarmWorkingSets {
		wk.set.Reset()
		wk.alpha = wk.alpha[:0]
	}
	return flips
}

// Ready reports whether the worker has CCCP-frozen effective labels — i.e.
// RefreshSigns has run and Solve may be called. A client resuming a dropped
// session mid-round uses it to tell a warm worker (skip the redundant sign
// refresh, keeping the working set) from a fresh one after a crash.
func (wk *Worker) Ready() bool { return wk.signs != nil }

// Solve performs the device-side x-update of one ADMM round: it minimizes
// subproblem (22) with a local cutting-plane loop. v_t is eliminated in
// closed form (v_t = ρ·p/(a+ρ) with a = 2λ/T and p = w_t − (w0 − u_t)),
// leaving a one-slack QP in w_t whose dual has a single unit-budget simplex
// constraint. It returns w_t, v_t and the slack ξ_t. The two vectors are lent:
// the worker's own buffers, valid until its next Solve or RefreshSigns; whoever
// keeps one longer copies it (Hyperplane does). After an error the worker's
// hyperplane is undefined and the run must end.
//
// Each cut round checks the cuts at a point, base + p with p = Σ α_k·image_k/ρ̃
// from the round's dual. In the feature space the point is w, the base b and
// cut k's image A_k. In the row space (m < d) the point is the margin vector
// X·w, the base X·b and the image h_k = X·A_k: no round product is longer than
// m, and the only d-sized work is X·b on the way in and w = b + Xᵀβ on the way
// out. The linear term C_k − base·A_k, the slack max_k C_k − point·A_k and a
// candidate's violation are the same code in either space.
func (wk *Worker) Solve(w0, u mat.Vector, rho float64) (mat.Vector, mat.Vector, float64, error) {
	if wk.signs == nil {
		return nil, nil, 0, errors.New("core: Worker.Solve before RefreshSigns")
	}
	if rho <= 0 {
		return nil, nil, 0, fmt.Errorf("core: Worker.Solve: rho must be positive, got %g", rho)
	}
	if len(w0) != len(wk.b) || len(u) != len(wk.b) {
		return nil, nil, 0, fmt.Errorf("core: Worker.Solve: |w0| = %d, |u| = %d, want %d", len(w0), len(u), len(wk.b))
	}
	a := 2 * wk.cfg.Lambda / float64(wk.totalUsers)
	rhoEff := a * rho / (a + rho)
	b, p, w := wk.b, wk.p, wk.w
	for i := range b {
		b[i] = w0[i] - u[i]
	}
	base, point := wk.space.begin(b)
	wk.stats = SolveStats{}
	duals := 0 // the number of cuts the last round's dual ran over
	// xi is the last round's slack; settled says that round added no cut, so
	// the set and point it read are the final ones.
	var xi float64
	settled := false

	flight := wk.cfg.Obs.FlightEnabled()
	for round := 0; round < wk.cfg.MaxCutIter; round++ {
		var roundStart time.Time
		if flight {
			roundStart = time.Now()
		}
		wk.cutRounds++
		wk.stats.Cuts++
		wk.cfg.Obs.Counter(obs.MetricCutRounds, "").Inc()
		p.Zero()
		if duals = wk.set.Len(); duals > 0 {
			if err := wk.solveLocalDual(rhoEff, base); err != nil {
				return nil, nil, 0, err
			}
		}
		for i := range point {
			point[i] = base[i] + p[i]
		}
		c, bits, err := wk.space.candidate(wk.signs, wk.weights, point)
		if err != nil {
			return nil, nil, 0, err
		}
		xi = optimize.Slack(&wk.set, point)
		viol := optimize.Violation(c, point, xi)
		added := viol > wk.cfg.Epsilon && wk.set.AddCut(c, bits)
		if flight {
			addedN := 0
			if added {
				addedN = 1
			}
			wk.cfg.Obs.FlightRecord(obs.Record{Kind: obs.RecordCutRound, Round: round,
				User: wk.user, Violation: viol, Added: addedN, WorkingSet: wk.set.Len(),
				Dur: time.Since(roundStart)})
		}
		if !added {
			settled = true
			break
		}
		wk.cfg.Obs.Counter(obs.MetricConstraintsAdded, "").Inc()
	}
	wk.space.hyperplane(w, b, wk.set.Constraints(), wk.alpha[:duals], rhoEff)
	// v_t from p re-read off the rounded w (not the dual's p): v = ρ/(a+ρ)·(w − b).
	scale := rho / (a + rho)
	for i := range wk.v {
		wk.v[i] = scale * (w[i] - b[i])
	}
	if !settled {
		// The last round added a cut (or none ran): the set grew since.
		xi = optimize.Slack(&wk.set, point)
	}
	wk.xi = xi
	return w, wk.v, wk.xi, nil
}

// solveLocalDual solves the restricted dual of the one-slack QP:
// min ½αᵀGα − c̃ᵀα with G = (1/ρ̃)·A·A', α >= 0, Σα <= 1, and leaves
// p = (1/ρ̃)·Σ α_k·image_k in wk.p (zeroed by the caller). The Gram and its
// bound are served from the worker's incremental cache; only the linear term
// c̃_k = C_k − base·A_k depends on b and is recomputed each solve (base is b,
// or X·b in the row space, where b·Xᵀg_k = (X·b)·g_k).
func (wk *Worker) solveLocalDual(rhoEff float64, base mat.Vector) error {
	cons := wk.set.Constraints()
	n := len(cons)
	if gen := wk.set.Generation(); gen != wk.gramGen || n < wk.gram.Len() || rhoEff != wk.gramRho {
		if len(wk.alpha) > 0 && (gen != wk.gramGen || n < wk.gram.Len()) && wk.gram.Len() > 0 {
			// The set the cached duals were aligned with shrank or was
			// rebuilt: the stale warm start is dropped, not mis-mapped.
			wk.cfg.Obs.Counter(obs.MetricWarmStartTruncations, "").Inc()
			wk.alpha = wk.alpha[:0]
		}
		wk.gram.Reset()
		wk.gramGen = gen
		wk.gramRho = rhoEff
	}
	if wk.cfg.RebuildGram {
		wk.gram.Reset()
	}
	if len(wk.alpha) > 0 {
		wk.stats.WarmHits++
	}
	var gramStart time.Time
	if wk.cfg.Obs != nil {
		gramStart = time.Now()
	}
	g := wk.gram.Matrix()
	if n != wk.gram.Len() { // the space's closures exist only when a cut was added
		g = wk.space.grow(&wk.gram, &wk.set, rhoEff)
	}
	if r := wk.cfg.Obs; r != nil {
		r.Histogram(obs.MetricGramBuildSeconds, "").Observe(time.Since(gramStart).Seconds())
	}
	// c̃_k = C_k − base·A_k.
	wk.cvec = mat.Resize(wk.cvec, n)
	mat.DotRows(wk.cvec, base, func(k int) mat.Vector { return cons[k].A })
	for k := range wk.cvec {
		wk.cvec[k] = cons[k].C - wk.cvec[k]
	}
	for len(wk.idx) < n {
		wk.idx = append(wk.idx, len(wk.idx))
	}
	for len(wk.alpha) < n {
		wk.alpha = append(wk.alpha, 0) // constraints added since last solve
	}
	wk.groups[0] = wk.idx[:n]
	prob := qp.Problem{G: g, C: wk.cvec,
		Groups: qp.GroupSpec{Groups: wk.groups[:], Budgets: wk.budgets[:]}}
	alpha, qinfo, err := wk.scratch.Solve(&prob, qp.Options{MaxIter: wk.cfg.QPMaxIter, Tol: 1e-10,
		X0: wk.alpha, LipschitzBound: wk.gram.Bound(), Obs: wk.cfg.Obs})
	if err != nil {
		return fmt.Errorf("core: local dual QP: %w", err)
	}
	wk.stats.QPIters += int64(qinfo.Iterations)
	copy(wk.alpha, alpha)
	for k := range cons {
		if alpha[k] != 0 {
			wk.p.AddScaled(alpha[k]/rhoEff, wk.space.image(cons, k))
		}
	}
	return nil
}

// cutSpace is the part of Worker.Solve's cut round that depends on where
// the round works (Solve's doc): the feature space, which checks cuts at w,
// or the row space, which checks them at the margins X·w. The loop itself —
// counters, flight records, AddCut dedup, lending — is Solve's alone.
type cutSpace interface {
	// begin starts a Solve at b = w0 − u: it returns the round's base point
	// (its point at α = 0) and the buffer every round's point is written to.
	begin(b mat.Vector) (base, point mat.Vector)
	// grow extends gram to every cut in set, cell (j, k) = A_j·A_k/ρ̃, and
	// readies image for the new cuts.
	grow(gram *qp.GramCache, set *optimize.WorkingSet, rhoEff float64) *mat.Matrix
	// image returns cut k's image, the vector its dual moves the point by.
	image(cons []optimize.Constraint, k int) mat.Vector
	// candidate returns the most-violated cut at point and its subset
	// bitmask, both on the space's buffers until its next call.
	candidate(signs, weights []float64, point mat.Vector) (optimize.Constraint, []byte, error)
	// hyperplane writes into w the hyperplane of a solve's last round, whose
	// dual was alpha over the first len(alpha) cuts.
	hyperplane(w, b mat.Vector, cons []optimize.Constraint, alpha mat.Vector, rhoEff float64)
}

// featureSpace is the cut round of a worker with at least as many rows as
// features: a cut stores A_k ∈ ℝ^d, its image is A_k, and the point is w.
type featureSpace struct {
	x   *mat.Matrix
	w   mat.Vector // the worker's w
	cut optimize.CutScratch
}

func (fs *featureSpace) begin(b mat.Vector) (base, point mat.Vector) { return b, fs.w }

func (fs *featureSpace) grow(gram *qp.GramCache, set *optimize.WorkingSet, rhoEff float64) *mat.Matrix {
	cons := set.Constraints()
	// Sequential fill (workers=1): device-local solves already fan out
	// across users, so nested parallelism would only thrash.
	return gram.GrowDots(len(cons), 1,
		func(k int) mat.Vector { return cons[k].A },
		func(_, _ int, dot float64) float64 { return dot / rhoEff })
}

func (fs *featureSpace) image(cons []optimize.Constraint, k int) mat.Vector { return cons[k].A }

func (fs *featureSpace) candidate(signs, weights []float64, w mat.Vector) (optimize.Constraint, []byte, error) {
	return fs.cut.MostViolated(fs.x, signs, weights, w)
}

// hyperplane has nothing left to do: every round wrote its point, w.
func (fs *featureSpace) hyperplane(w, b mat.Vector, cons []optimize.Constraint, alpha mat.Vector, rhoEff float64) {
}

// rowSpace is the cut round of a worker with fewer rows than features. Every
// cut is a signed, weighted sum of the worker's rows, A_k = Xᵀg_k with
// g_ki = weight_i·eff_i on the selected subset and 0 elsewhere, so a cut
// stores g_k ∈ ℝ^m and its image is h_k = X·A_k = K·g_k, where K = XXᵀ; the
// Gram cell A_j·A_k is g_j·h_k.
type rowSpace struct {
	x *mat.Matrix
	k *mat.Matrix // K = XXᵀ, built at the worker's first cut
	// h[k] is cut k's image for the set generation hGen. Past len(h) the
	// backing array keeps the vectors a Reset retired, for the next cuts.
	h    []mat.Vector
	hGen uint64
	// xb is the base point X·b, margins each round's point X·w, g the
	// candidate cut's coefficients and beta the last round's Σ α_k·g_k/ρ̃.
	xb, margins, g, beta mat.Vector
	bits                 []byte
	// rows and coef list a new cut's non-zero g_ki, the rows of K its image
	// adds.
	rows []int
	coef mat.Vector
	// cons and rhoEff are the grow in progress, which gOf, hOf and perRho
	// read: closures made once, so a grow allocates none.
	cons     []optimize.Constraint
	rhoEff   float64
	gOf, hOf func(k int) mat.Vector
	perRho   func(j, k int, dot float64) float64
}

func newRowSpace(x *mat.Matrix) *rowSpace {
	m := x.Rows
	rs := &rowSpace{x: x, xb: mat.NewVector(m), margins: mat.NewVector(m),
		g: mat.NewVector(m), beta: mat.NewVector(m), bits: make([]byte, (m+7)/8),
		rows: make([]int, m), coef: mat.NewVector(m)}
	rs.gOf = func(k int) mat.Vector { return rs.cons[k].A }
	rs.hOf = func(k int) mat.Vector { return rs.h[k] }
	rs.perRho = func(_, _ int, dot float64) float64 { return dot / rs.rhoEff }
	return rs
}

func (rs *rowSpace) begin(b mat.Vector) (base, point mat.Vector) {
	rs.x.MulVecTo(rs.xb, b)
	return rs.xb, rs.margins
}

func (rs *rowSpace) grow(gram *qp.GramCache, set *optimize.WorkingSet, rhoEff float64) *mat.Matrix {
	cons := set.Constraints()
	if gen := set.Generation(); gen != rs.hGen || len(rs.h) > len(cons) {
		rs.h, rs.hGen = rs.h[:0], gen
	}
	if rs.k == nil && len(rs.h) < len(cons) {
		rs.k = rs.x.Gram()
	}
	for n := len(rs.h); n < len(cons); n++ {
		var h mat.Vector
		if n < cap(rs.h) {
			h = rs.h[:n+1][n]
		}
		h = mat.Resize(h, rs.x.Rows)
		h.Zero()
		sel := 0
		for i, gi := range cons[n].A {
			if gi != 0 {
				rs.rows[sel], rs.coef[sel] = i, gi
				sel++
			}
		}
		mat.AddScaledRows(h, rs.k, rs.rows[:sel], rs.coef[:sel])
		rs.h = append(rs.h, h)
	}
	rs.cons, rs.rhoEff = cons, rhoEff
	g := gram.GrowCross(len(cons), 1, rs.gOf, rs.hOf, rs.perRho)
	rs.cons = nil
	return g
}

func (rs *rowSpace) image(cons []optimize.Constraint, k int) mat.Vector { return rs.h[k] }

// candidate is MostViolated read off the margins: sample i is selected iff
// its weight is non-zero and eff_i·(x_i·w) < 1, and g_i = weight_i·eff_i.
func (rs *rowSpace) candidate(signs, weights []float64, margins mat.Vector) (optimize.Constraint, []byte, error) {
	clear(rs.bits)
	var c float64
	for i, margin := range margins {
		rs.g[i] = 0
		if weights[i] != 0 && signs[i]*margin < 1 {
			rs.g[i] = weights[i] * signs[i]
			c += weights[i]
			rs.bits[i/8] |= 1 << (i % 8)
		}
	}
	return optimize.Constraint{A: rs.g, C: c}, rs.bits, nil
}

// hyperplane is w = b + Xᵀβ with β = Σ α_k·g_k/ρ̃: with X·b in begin, the
// solve's d-sized work. mat.AddRowBlocks adds the rows four at a time, so w is
// read and written once per four rows.
func (rs *rowSpace) hyperplane(w, b mat.Vector, cons []optimize.Constraint, alpha mat.Vector, rhoEff float64) {
	beta := rs.beta
	beta.Zero()
	for k, a := range alpha {
		if a != 0 {
			beta.AddScaled(a/rhoEff, cons[k].A)
		}
	}
	copy(w, b)
	mat.AddRowBlocks(w, rs.x, beta)
}

// Hyperplane returns a copy of the worker's current personalized hyperplane.
func (wk *Worker) Hyperplane() mat.Vector { return wk.w.Clone() }

// objectiveTerm returns this worker's contribution (λ/T)||v_t||² + ξ_t to
// the distributed objective L of Eq. (23).
func (wk *Worker) objectiveTerm() float64 {
	return wk.cfg.Lambda/float64(wk.totalUsers)*wk.v.SquaredNorm() + wk.xi
}

// newFleet is the set-up the in-process distributed trainers share: one
// Worker per validated user, numbered for trace attribution, and the pooled
// starting w0. cfg has its defaults; trainer names the caller in errors.
func newFleet(trainer string, users []UserData, cfg Config) ([]*Worker, mat.Vector, error) {
	dim, err := validateUsers(users)
	if err != nil {
		return nil, nil, err
	}
	workers := make([]*Worker, len(users))
	for t, u := range users {
		wk, err := NewWorker(u, len(users), cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s: user %d: %w", trainer, t, err)
		}
		wk.SetUser(t)
		workers[t] = wk
	}
	return workers, initialW0(users, dim, cfg), nil
}

// fleetModel is their tear-down: the model off the workers' hyperplanes, and
// the working-set totals into info and the constraints gauge.
func fleetModel(workers []*Worker, w0 mat.Vector, cfg Config, info *TrainInfo) *Model {
	model := &Model{W0: w0, W: make([]mat.Vector, len(workers))}
	for t, wk := range workers {
		model.W[t] = wk.Hyperplane()
		info.Constraints += wk.set.Len()
		info.CutRounds += wk.cutRounds
	}
	cfg.Obs.Gauge(obs.MetricConstraintsActive, "").Set(float64(info.Constraints))
	return model
}

// TrainDistributed runs the paper's Algorithm 2 with in-process workers:
// an outer CCCP loop; inside it, consensus ADMM where each user solves its
// local subproblem (22) and only parameter vectors move between the
// "devices" and the "server". The result matches TrainCentralized up to
// ADMM tolerance (paper Fig. 11).
func TrainDistributed(users []UserData, cfg Config, dcfg DistConfig) (*Model, TrainInfo, error) {
	cfg = cfg.WithDefaults()
	dcfg = dcfg.WithDefaults()
	workers, w0, err := newFleet("TrainDistributed", users, cfg)
	if err != nil {
		return nil, TrainInfo{}, err
	}
	tCount, dim := len(users), len(w0)

	// Optional codec-v4 simulation: one encoder/decoder pair per user, the
	// in-process equivalent of the two one-direction transport wrappers of a
	// wire run (per-slot streams are independent, so one pair covers all
	// four slots). All state is index-addressed by t and touched by exactly
	// one Solve call per ADMM round, so the simulation is race-free and
	// bit-identical for any DistConfig.Workers.
	compOn := dcfg.Compress.Enabled()
	var encs []*compress.Encoder
	var decs []*compress.Decoder
	var rawBytes, compBytes []int64
	if compOn {
		if err := dcfg.Compress.Validate(); err != nil {
			return nil, TrainInfo{}, fmt.Errorf("core: TrainDistributed: %w", err)
		}
		encs = make([]*compress.Encoder, tCount)
		decs = make([]*compress.Decoder, tCount)
		rawBytes = make([]int64, tCount)
		compBytes = make([]int64, tCount)
		for t := range encs {
			encs[t] = compress.NewEncoder(dcfg.Compress)
			decs[t] = compress.NewDecoder()
		}
	}
	roundtrip := func(t int, slot compress.Slot, x mat.Vector) (mat.Vector, error) {
		vec := encs[t].Encode(slot, x)
		rawBytes[t] += int64(compress.DenseWireBytes(len(x)))
		compBytes[t] += int64(vec.EncodedSize())
		y, err := decs[t].Decode(slot, vec)
		if err != nil {
			return nil, fmt.Errorf("core: TrainDistributed: compress roundtrip user %d: %w", t, err)
		}
		return mat.Vector(y), nil
	}

	xs := make([]mat.Vector, tCount)
	for t := range xs {
		xs[t] = mat.NewVector(dim)
	}
	info := TrainInfo{}
	err = BeginRun(cfg.Obs, "distributed", tCount).CCCP(cfg, nil, nil, &info, func(int) (float64, int, error) {
		flips := 0
		for _, wk := range workers {
			flips += wk.RefreshSigns(w0)
		}
		update := func(t int, z, u mat.Vector) (mat.Vector, error) {
			if compOn {
				var err error
				if z, err = roundtrip(t, compress.SlotW0, z); err != nil {
					return nil, err
				}
				if u, err = roundtrip(t, compress.SlotU, u); err != nil {
					return nil, err
				}
			}
			w, v, _, err := workers[t].Solve(z, u, dcfg.Rho)
			if err != nil {
				return nil, err
			}
			if compOn {
				// The server folds what it RECEIVED, not what the device
				// computed: consensus is built from the decoded vectors.
				if w, err = roundtrip(t, compress.SlotW, w); err != nil {
					return nil, err
				}
				if v, err = roundtrip(t, compress.SlotV, v); err != nil {
					return nil, err
				}
			}
			// Consensus variable x_t = w_t − v_t, in user t's own buffer.
			mat.SubVecTo(xs[t], w, v)
			return xs[t], nil
		}
		cons, runInfo, err := admm.Run(dim, tCount, update, admm.SquaredNormZ, admm.Options{
			Rho:     dcfg.Rho,
			EpsAbs:  dcfg.EpsAbs,
			MaxIter: dcfg.MaxADMMIter,
			Workers: dcfg.Workers,
			Obs:     cfg.Obs,
		})
		info.ADMMIterations += runInfo.Iterations
		info.ADMMPrimal = runInfo.Final.Primal
		info.ADMMDual = runInfo.Final.Dual
		info.SolveTime += runInfo.SolveTime
		info.SlowestSolveTime += runInfo.SlowestSolveTime
		info.FoldTime += runInfo.FoldTime
		if err != nil && !errors.Is(err, admm.ErrMaxIterations) {
			return 0, 0, err
		}
		w0 = cons.Z
		// L of Eq. (23).
		obj := w0.SquaredNorm()
		for _, wk := range workers {
			obj += wk.objectiveTerm()
		}
		return obj, flips, nil
	})
	if err != nil {
		return nil, info, fmt.Errorf("core: TrainDistributed: %w", err)
	}

	model := fleetModel(workers, w0, cfg, &info)
	if compOn {
		var efSq float64
		for t := range encs {
			info.CommRawBytes += rawBytes[t]
			info.CommCompBytes += compBytes[t]
			n := encs[t].ResidualNorm()
			efSq += n * n
		}
		info.CompressEFNorm = math.Sqrt(efSq)
	}
	return model, info, nil
}
