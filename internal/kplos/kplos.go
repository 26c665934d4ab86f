// Package kplos implements kernelized centralized PLOS — the nonlinear
// extension the paper points at with "we can simplify the optimization
// problem through feature mapping and the kernel as described in [33]"
// (Evgeniou & Pontil's multi-task kernel) but only evaluates linearly.
//
// The algorithm is the paper's Algorithm 1 verbatim (CCCP + cutting plane +
// the structured QP dual); the only change is representation. A constraint
// aggregate z_kt lives in the RKHS as an expansion over user t's samples,
//
//	A_kt = (1/m_t) Σ_i c_i w_i eff_i Φ(x_it),
//
// all Φ-space inner products reduce to kernel sums
// ⟨z_kt, z_k't'⟩ = (λ/T + δ_tt')·⟨A_kt, A_k't'⟩_K, and a user's decision
// function is the kernel expansion
//
//	f_t(x) = Σ_{(t',k)} γ_kt' (λ/T + δ_tt') ⟨A_kt', Φ(x)⟩_K.
//
// With kernel.Linear the trainer agrees with internal/core's analytic
// linear solver, which the tests cross-check.
package kplos

import (
	"errors"
	"fmt"
	"sort"

	"plos/internal/core"
	"plos/internal/kernel"
	"plos/internal/mat"
	"plos/internal/parallel"
	"plos/internal/qp"
)

// Model is a trained kernelized PLOS model: expansions over the training
// samples for the global function and each personalized one.
type Model struct {
	kern    kernel.Kernel
	samples []mat.Vector // flattened training samples by global index
	w0      kernel.Expansion
	perUser []kernel.Expansion // personalized *offsets* v_t (w_t = w0 + v_t)
}

// NumUsers returns the number of personalized functions.
func (m *Model) NumUsers() int { return len(m.perUser) }

// ScoreUser evaluates user t's decision function on a new sample.
func (m *Model) ScoreUser(t int, x mat.Vector) float64 {
	return m.evalExpansion(m.w0, x) + m.evalExpansion(m.perUser[t], x)
}

// PredictUser classifies x with user t's personalized function.
func (m *Model) PredictUser(t int, x mat.Vector) float64 {
	if m.ScoreUser(t, x) >= 0 {
		return 1
	}
	return -1
}

// PredictGlobal classifies x with the shared function (cold start).
func (m *Model) PredictGlobal(x mat.Vector) float64 {
	if m.evalExpansion(m.w0, x) >= 0 {
		return 1
	}
	return -1
}

// SupportSize returns the number of training samples with nonzero
// coefficient in user t's full expansion (w0 + v_t).
func (m *Model) SupportSize(t int) int {
	nz := map[int]float64{}
	for p, i := range m.w0.Idx {
		nz[i] += m.w0.Coeff[p]
	}
	for p, i := range m.perUser[t].Idx {
		nz[i] += m.perUser[t].Coeff[p]
	}
	n := 0
	for _, c := range nz {
		if c != 0 {
			n++
		}
	}
	return n
}

func (m *Model) evalExpansion(e kernel.Expansion, x mat.Vector) float64 {
	var s float64
	for p, i := range e.Idx {
		if e.Coeff[p] != 0 {
			s += e.Coeff[p] * m.kern.Eval(m.samples[i], x)
		}
	}
	return s
}

// kConstraint is one cutting-plane constraint in RKHS representation.
type kConstraint struct {
	user int
	a    kernel.Expansion
	c    float64
	key  string
	// dots caches ⟨A, Φ(sample_j)⟩ for every global sample j, so margins
	// refresh in O(#constraints · N) per round instead of re-walking
	// kernel rows.
	dots []float64
}

// Train runs kernelized centralized PLOS. cfg is interpreted exactly as in
// core.TrainCentralized.
func Train(users []core.UserData, cfg core.Config, k kernel.Kernel) (*Model, core.TrainInfo, error) {
	if k == nil {
		return nil, core.TrainInfo{}, errors.New("kplos: nil kernel")
	}
	st, err := newState(users, cfg, k)
	if err != nil {
		return nil, core.TrainInfo{}, err
	}
	info := core.TrainInfo{}
	err = core.BeginRun(st.cfg.Obs, "kernel", st.t).CCCP(st.cfg, nil, nil, &info, func(int) (float64, int, error) {
		flips := st.refreshSigns()
		if !st.cfg.WarmWorkingSets {
			st.constraints = nil
			st.keys = make(map[string]struct{})
			st.gamma = nil
			st.margins.Zero()
			st.invalidateGramCache()
		}
		obj, rounds, qpIters, err := st.solveConvexified()
		info.CutRounds += rounds
		info.QPIterations += qpIters
		return obj, flips, err
	})
	if err != nil {
		return nil, info, fmt.Errorf("kplos: Train: %w", err)
	}
	info.Constraints = len(st.constraints)
	return st.buildModel(), info, nil
}

type state struct {
	users []core.UserData
	cfg   core.Config
	kern  kernel.Kernel
	gram  *kernel.Gram
	t     int

	budget  float64 // T/(2λ)
	scaleW0 float64 // λ/T

	signs   [][]float64
	weights [][]float64

	constraints []*kConstraint
	keys        map[string]struct{}
	gamma       mat.Vector // aligned with constraints
	// margins[t*?]: current f_t(x_it) for every global sample index.
	margins mat.Vector

	// Incremental restricted-QP cache (DESIGN.md §11): constraints only
	// append between CCCP resets, so the dual Gram, its Gershgorin bound,
	// the linear term and the per-user group lists grow by the newly
	// added constraints instead of being rebuilt each cut round. flatLen
	// counts the constraints already folded into groups/cvec; the Gram
	// materialization is tracked by gram itself (core.Config.RebuildGram
	// resets it every solve for the bit-identity property test).
	flatLen int
	groups  [][]int
	cvec    mat.Vector
	budgets []float64
	qpGram  qp.GramCache
	scratch qp.Scratch
}

// invalidateGramCache drops the cached restricted dual; called when the
// constraint pool is reset between CCCP rounds (cold working sets).
func (s *state) invalidateGramCache() {
	s.flatLen = 0
	for t := range s.groups {
		s.groups[t] = s.groups[t][:0]
	}
	s.cvec = s.cvec[:0]
	s.qpGram.Reset()
}

func newState(users []core.UserData, cfg core.Config, k kernel.Kernel) (*state, error) {
	if len(users) == 0 {
		return nil, core.ErrNoUsers
	}
	mats := make([]*mat.Matrix, len(users))
	for t, u := range users {
		if u.X == nil || u.X.Rows == 0 {
			return nil, fmt.Errorf("%w (user %d)", core.ErrEmptyUser, t)
		}
		if len(u.Y) > u.X.Rows {
			return nil, fmt.Errorf("%w: user %d", core.ErrTooManyLabels, t)
		}
		for _, y := range u.Y {
			if y != 1 && y != -1 {
				return nil, fmt.Errorf("%w: user %d", core.ErrBadLabel, t)
			}
		}
		mats[t] = u.X
	}
	gram, err := kernel.NewGramWorkers(mats, k, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("kplos: %w", err)
	}
	cfg = cfg.WithDefaults()
	st := &state{
		users:   users,
		cfg:     cfg,
		kern:    k,
		gram:    gram,
		t:       len(users),
		budget:  float64(len(users)) / (2 * cfg.Lambda),
		scaleW0: cfg.Lambda / float64(len(users)),
		signs:   make([][]float64, len(users)),
		weights: make([][]float64, len(users)),
		keys:    make(map[string]struct{}),
		margins: mat.NewVector(gram.Total()),
		groups:  make([][]int, len(users)),
		budgets: make([]float64, len(users)),
	}
	for t := range st.budgets {
		st.budgets[t] = st.budget
	}
	for t, u := range users {
		m := u.NumSamples()
		w := make([]float64, m)
		for i := 0; i < m; i++ {
			if i < u.NumLabeled() {
				w[i] = cfg.Cl / float64(m)
			} else {
				w[i] = cfg.Cu / float64(m)
			}
		}
		st.weights[t] = w
	}
	st.initMargins()
	return st, nil
}

// initMargins seeds the CCCP sign freeze with the kernel nearest-centroid
// scorer over the pooled labeled samples — the RKHS analogue of the linear
// solver's ridge init (robust to the paper's label noise). With no labels
// anywhere, samples alternate signs (balanced, deterministic).
func (s *state) initMargins() {
	type labeled struct {
		global int
		y      float64
	}
	var pool []labeled
	for t, u := range s.users {
		for i := 0; i < u.NumLabeled(); i++ {
			pool = append(pool, labeled{s.gram.Index(t, i), u.Y[i]})
		}
	}
	if len(pool) == 0 {
		for j := range s.margins {
			if j%2 == 0 {
				s.margins[j] = 1
			} else {
				s.margins[j] = -1
			}
		}
		return
	}
	var nPos, nNeg float64
	for _, l := range pool {
		if l.y > 0 {
			nPos++
		} else {
			nNeg++
		}
	}
	for j := range s.margins {
		var sPos, sNeg float64
		for _, l := range pool {
			if l.y > 0 {
				sPos += s.gram.At(l.global, j)
			} else {
				sNeg += s.gram.At(l.global, j)
			}
		}
		if nPos > 0 {
			sPos /= nPos
		}
		if nNeg > 0 {
			sNeg /= nNeg
		}
		s.margins[j] = sPos - sNeg
	}
}

// refreshSigns freezes this CCCP round's effective labels at the sign of the
// current margins and returns how many flipped since the previous round.
func (s *state) refreshSigns() int {
	flips := 0
	for t, u := range s.users {
		m := u.NumSamples()
		eff := make([]float64, m)
		copy(eff, u.Y)
		for i := u.NumLabeled(); i < m; i++ {
			if s.margins[s.gram.Index(t, i)] >= 0 {
				eff[i] = 1
			} else {
				eff[i] = -1
			}
			if prev := s.signs[t]; prev != nil && prev[i] != eff[i] {
				flips++
			}
		}
		s.signs[t] = eff
	}
	return flips
}

// mostViolated builds user t's Eq. (14) constraint from current margins.
func (s *state) mostViolated(t int) *kConstraint {
	u := s.users[t]
	m := u.NumSamples()
	var idx []int
	var coeff []float64
	var c float64
	bits := make([]byte, (m+7)/8)
	for i := 0; i < m; i++ {
		w := s.weights[t][i]
		if w == 0 {
			continue
		}
		if s.signs[t][i]*s.margins[s.gram.Index(t, i)] < 1 {
			idx = append(idx, s.gram.Index(t, i))
			coeff = append(coeff, w*s.signs[t][i])
			c += w
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return &kConstraint{
		user: t,
		a:    kernel.Expansion{Idx: idx, Coeff: coeff},
		c:    c,
		key:  fmt.Sprintf("%d:%s", t, bits),
	}
}

func (s *state) slack(t int) float64 {
	var xi float64
	for _, kc := range s.constraints {
		if kc.user != t {
			continue
		}
		v := kc.c - s.constraintValue(kc)
		if v > xi {
			xi = v
		}
	}
	return xi
}

// constraintValue returns w'·z for a constraint: Σ_i γ_i(λ/T+δ)⟨A_i,A⟩.
// Using the margin cache: w'·z_kt = Σ_i in A: coeff_i · margin(sample i)
// (both sides are linear in the same expansion), so reuse margins.
func (s *state) constraintValue(kc *kConstraint) float64 {
	var v float64
	for p, i := range kc.a.Idx {
		v += kc.a.Coeff[p] * s.margins[i]
	}
	return v
}

// recomputeMargins refreshes f_t(x_j) for every sample from the dual γ.
func (s *state) recomputeMargins() {
	s.margins.Zero()
	for ci, kc := range s.constraints {
		g := s.gamma[ci]
		if g == 0 {
			continue
		}
		for t := range s.users {
			scale := s.scaleW0
			if t == kc.user {
				scale += 1
			}
			w := g * scale
			lo := s.gram.Index(t, 0)
			hi := lo + s.users[t].NumSamples()
			for j := lo; j < hi; j++ {
				s.margins[j] += w * kc.dots[j]
			}
		}
	}
}

func (s *state) solveConvexified() (float64, int, int, error) {
	qpIters, rounds := 0, 0
	for round := 0; round < s.cfg.MaxCutIter; round++ {
		rounds = round + 1
		if len(s.constraints) > 0 {
			iters, err := s.solveRestrictedQP()
			qpIters += iters
			if err != nil {
				return 0, rounds, qpIters, err
			}
			s.recomputeMargins()
		} else {
			s.margins.Zero()
		}
		added := 0
		for t := range s.users {
			kc := s.mostViolated(t)
			if _, dup := s.keys[kc.key]; dup {
				continue
			}
			xi := s.slack(t)
			if kc.c-s.constraintValue(kc)-xi > s.cfg.Epsilon {
				kc.dots = make([]float64, s.gram.Total())
				// Each cache slot is an independent kernel sum; slot j is
				// written by exactly one goroutine, so the fill fans out.
				parallel.Do(s.cfg.Workers, s.gram.Total(), func(j int) {
					kc.dots[j] = s.gram.DotSample(kc.a, j)
				})
				s.constraints = append(s.constraints, kc)
				s.keys[kc.key] = struct{}{}
				added++
			}
		}
		if added == 0 {
			break
		}
	}
	return s.objective(), rounds, qpIters, nil
}

// solveRestrictedQP solves the dual restricted to the current constraint
// pool. The pool is arrival-ordered and append-only between CCCP resets, so
// the Gram, its Gershgorin bound, the linear term and the group lists are
// served from the incremental cache and only the new rows/columns are
// computed each round.
func (s *state) solveRestrictedQP() (int, error) {
	n := len(s.constraints)
	for i := s.flatLen; i < n; i++ {
		kc := s.constraints[i]
		s.groups[kc.user] = append(s.groups[kc.user], i)
		s.cvec = append(s.cvec, kc.c)
	}
	s.flatLen = n
	if s.cfg.RebuildGram {
		s.qpGram.Reset()
	}
	// Cell (i, j): ⟨A_i, A_j⟩ via the cached per-sample dots of
	// constraint i — the same formula for cached and fresh cells, so the
	// incremental matrix is bit-identical to a from-scratch rebuild. New
	// columns fan out across the worker pool (disjoint cells per owner).
	g := s.qpGram.Grow(n, s.cfg.Workers, func(i, j int) float64 {
		kc, other := s.constraints[i], s.constraints[j]
		var dot float64
		for p, idx := range other.a.Idx {
			dot += other.a.Coeff[p] * kc.dots[idx]
		}
		v := s.scaleW0 * dot
		if kc.user == other.user {
			v += dot
		}
		return v
	})
	// Warm start: previous duals are a prefix of the arrival order.
	for len(s.gamma) < n {
		s.gamma = append(s.gamma, 0)
	}
	gamma, qinfo, err := qp.Solve(&qp.Problem{G: g, C: s.cvec,
		Groups: qp.GroupSpec{Groups: s.groups, Budgets: s.budgets}},
		qp.Options{MaxIter: s.cfg.QPMaxIter, Tol: 1e-9, X0: s.gamma,
			LipschitzBound: s.qpGram.Bound(), Scratch: &s.scratch, Obs: s.cfg.Obs})
	if err != nil && !errors.Is(err, qp.ErrMaxIterations) {
		return qinfo.Iterations, fmt.Errorf("kplos: restricted QP: %w", err)
	}
	s.gamma = append(s.gamma[:0], gamma...)
	return qinfo.Iterations, nil
}

// objective evaluates ½||w'||² + (T/2λ)Σξ_t; ||w'||² = γᵀGγ computed via
// constraint values (Gγ)_i = constraintValue(constraint i).
func (s *state) objective() float64 {
	var quad float64
	for i, kc := range s.constraints {
		quad += s.gamma[i] * s.constraintValue(kc)
	}
	obj := 0.5 * quad
	scale := float64(s.t) / (2 * s.cfg.Lambda)
	for t := range s.users {
		obj += scale * s.slack(t)
	}
	return obj
}

func (s *state) buildModel() *Model {
	samples := make([]mat.Vector, 0, s.gram.Total())
	for _, u := range s.users {
		for i := 0; i < u.X.Rows; i++ {
			samples = append(samples, u.X.Row(i).Clone())
		}
	}
	merge := func(into map[int]float64, e kernel.Expansion, scale float64) {
		for p, i := range e.Idx {
			into[i] += scale * e.Coeff[p]
		}
	}
	w0Map := map[int]float64{}
	perMaps := make([]map[int]float64, s.t)
	for t := range perMaps {
		perMaps[t] = map[int]float64{}
	}
	for ci, kc := range s.constraints {
		g := s.gamma[ci]
		if g == 0 {
			continue
		}
		merge(w0Map, kc.a, g*s.scaleW0)
		merge(perMaps[kc.user], kc.a, g)
	}
	toExp := func(m map[int]float64) kernel.Expansion {
		// Sorted global-index order: map iteration order is random, and an
		// unsorted expansion would make Score sums (and so the model bytes)
		// vary run to run.
		idx := make([]int, 0, len(m))
		for i, c := range m {
			if c != 0 {
				idx = append(idx, i)
			}
		}
		sort.Ints(idx)
		e := kernel.Expansion{}
		for _, i := range idx {
			e.Idx = append(e.Idx, i)
			e.Coeff = append(e.Coeff, m[i])
		}
		return e
	}
	model := &Model{kern: s.kern, samples: samples, w0: toExp(w0Map),
		perUser: make([]kernel.Expansion, s.t)}
	for t := range perMaps {
		model.perUser[t] = toExp(perMaps[t])
	}
	return model
}
