package core

import (
	"fmt"
	"time"

	"plos/internal/mat"
	"plos/internal/obs"
	"plos/internal/optimize"
	"plos/internal/parallel"
	"plos/internal/qp"
)

// TrainCentralized runs the paper's Algorithm 1: the server holds every
// user's raw data and solves problem (4) by CCCP linearization, cutting-
// plane constraint generation, and the structured QP dual (16).
//
// Internals never materialize the stacked feature map Φ of Eq. (7): a
// constraint aggregate z_kt decomposes as a per-user vector A_kt placed in
// slot t plus a λ-scaled copy in slot 0, so all Φ-space inner products are
// ⟨z_kt, z_k't'⟩ = (λ/T + δ_tt')⟨A_kt, A_k't'⟩ and the stacked solution
// collapses to w0 = (λ/T)Σγ·A and v_t = Σ_{k∈Ω_t}γ·A.
func TrainCentralized(users []UserData, cfg Config) (*Model, TrainInfo, error) {
	dim, err := validateUsers(users)
	if err != nil {
		return nil, TrainInfo{}, err
	}
	cfg = cfg.WithDefaults()
	tCount := len(users)
	state := newCentralState(users, cfg, dim)

	info := TrainInfo{}
	err = BeginRun(cfg.Obs, "centralized", tCount).CCCP(cfg, nil, nil, &info, func(int) (float64, int, error) {
		flips := state.refreshSigns()
		if !cfg.WarmWorkingSets {
			for t := range state.sets {
				state.sets[t].Reset()
			}
			state.invalidateGramCache()
		}
		obj, rounds, qpIters, err := state.solveConvexified()
		info.CutRounds += rounds
		info.QPIterations += qpIters
		return obj, flips, err
	})
	if err != nil {
		return nil, info, fmt.Errorf("core: TrainCentralized: %w", err)
	}
	for t := range state.sets {
		info.Constraints += state.sets[t].Len()
	}
	cfg.Obs.Gauge(obs.MetricConstraintsActive, "").Set(float64(info.Constraints))
	model := &Model{W0: state.w0, W: state.w}
	return model, info, nil
}

// newCentralState prepares the solver state for a validated cohort and a
// defaulted config: iterates at the initial hyperplane, empty working sets.
func newCentralState(users []UserData, cfg Config, dim int) *centralState {
	tCount := len(users)
	state := &centralState{
		users:   users,
		cfg:     cfg,
		dim:     dim,
		t:       tCount,
		budget:  float64(tCount) / (2 * cfg.Lambda),
		scaleW0: cfg.Lambda / float64(tCount),
		sets:    make([]optimize.WorkingSet, tCount),
		signs:   make([][]float64, tCount),
		weights: make([][]float64, tCount),
		flatLen: make([]int, tCount),
		gens:    make([]uint64, tCount),
		groups:  make([][]int, tCount),
		budgets: make([]float64, tCount),
		cuts:    make([]optimize.CutScratch, tCount),
		cands:   make([]candidate, tCount),
	}
	for t := range state.budgets {
		state.budgets[t] = state.budget
	}
	w0 := initialW0(users, dim, cfg)
	state.w0 = w0
	state.w = make([]mat.Vector, tCount)
	for t := range state.w {
		state.w[t] = w0.Clone()
	}
	for t, u := range users {
		m := u.NumSamples()
		weights := make([]float64, m)
		for i := 0; i < m; i++ {
			if i < u.NumLabeled() {
				weights[i] = cfg.Cl / float64(m)
			} else {
				weights[i] = cfg.Cu / float64(m)
			}
		}
		state.weights[t] = weights
	}
	return state
}

// centralState carries the mutable solver state across CCCP rounds.
type centralState struct {
	users   []UserData
	cfg     Config
	dim     int
	t       int
	budget  float64 // per-user dual budget T/(2λ)
	scaleW0 float64 // λ/T

	sets    []optimize.WorkingSet
	signs   [][]float64 // CCCP-frozen effective labels per user (length m_t)
	weights [][]float64 // per-sample loss weights (Cl/m or Cu/m)

	w0 mat.Vector
	w  []mat.Vector // personalized hyperplanes w_t

	// Incremental restricted-QP cache (DESIGN.md §11). The canonical
	// constraint order is *arrival order* — each cut round appends its new
	// constraints in user order — so the flattened refs, the per-user
	// group index lists, the linear term, the Gram matrix and its
	// Gershgorin bound all grow by appending; a solve's setup cost is
	// proportional to the constraints added since the last solve, not to
	// everything seen so far. gamma holds the previous solve's duals in
	// the same flat order (sets only append inside a generation, so the
	// prefix stays a valid warm start). Reset working sets (cold CCCP
	// rounds, or any out-of-band shrink) invalidate the whole cache.
	flat    []gramRef
	flatLen []int    // constraints of user t already flattened
	gens    []uint64 // working-set generation the cache was built against
	groups  [][]int
	cvec    mat.Vector
	budgets []float64
	gram    qp.GramCache
	gamma   mat.Vector
	scratch qp.Scratch

	// Per-user search buffers and candidate slots of the cut round, so a
	// round that adds nothing allocates nothing per user.
	cuts  []optimize.CutScratch
	cands []candidate
}

// candidate is one user's most-violated constraint of the current cut round,
// still in that user's CutScratch; ok marks it violated beyond ε.
type candidate struct {
	c    optimize.Constraint
	bits []byte
	ok   bool
	viol float64
}

// gramRef is one flattened constraint: user t's aggregate (A, C) of paper
// Eq. (17)–(18) at its arrival position.
type gramRef struct {
	user int
	a    mat.Vector
	c    float64
}

// invalidateGramCache drops every cached artifact of the restricted dual;
// the next solve rebuilds from the working sets alone.
func (s *centralState) invalidateGramCache() {
	s.flat = s.flat[:0]
	for t := range s.flatLen {
		s.flatLen[t] = 0
		s.groups[t] = s.groups[t][:0]
		s.gens[t] = s.sets[t].Generation()
	}
	s.cvec = s.cvec[:0]
	s.gram.Reset()
	s.gamma = nil
}

// syncGramCache reconciles the cache with the working sets: a shrunken or
// regenerated set invalidates everything (counting a warm-start truncation
// when live duals had to be dropped — the pre-cache solver silently
// mis-mapped them instead); then the constraints added since the last solve
// are appended in user order, which matches the order solveConvexified
// inserted them this round.
func (s *centralState) syncGramCache() {
	for t := range s.sets {
		if s.sets[t].Generation() != s.gens[t] || s.sets[t].Len() < s.flatLen[t] {
			if s.gamma != nil {
				s.cfg.Obs.Counter(obs.MetricWarmStartTruncations, "").Inc()
			}
			s.invalidateGramCache()
			break
		}
	}
	for t := range s.sets {
		cons := s.sets[t].Constraints()
		for k := s.flatLen[t]; k < len(cons); k++ {
			s.groups[t] = append(s.groups[t], len(s.flat))
			s.flat = append(s.flat, gramRef{user: t, a: cons[k].A, c: cons[k].C})
			s.cvec = append(s.cvec, cons[k].C)
		}
		s.flatLen[t] = len(cons)
	}
}

// unlabeledSigns sets eff[k] = sign(w·x_{lt+k}), +1 at zero, for the rows of
// x from lt on: the effective labels of a user's unlabeled samples. The
// margins come from one MulVecTo over those rows, written into eff itself,
// each bitwise the row's Dot with w.
func unlabeledSigns(eff mat.Vector, x *mat.Matrix, lt int, w mat.Vector) {
	d := x.Cols
	rows := mat.Matrix{Rows: len(eff), Cols: d, Data: x.Data[lt*d : (lt+len(eff))*d]}
	rows.MulVecTo(eff, w)
	for i, margin := range eff {
		if margin >= 0 {
			eff[i] = 1
		} else {
			eff[i] = -1
		}
	}
}

// refreshSigns fixes the effective labels for this CCCP round: true labels
// for labeled samples, sign(w_t·x) at the current iterate for unlabeled
// ones (the first-order Taylor linearization of Eq. 10). Users are
// independent given the current iterates, so the refresh fans out across
// the worker pool; each goroutine writes only its own signs slot (and its
// own flip-count slot, summed deterministically afterwards). Returns the
// number of effective labels that flipped since the previous round (0 on
// the first).
func (s *centralState) refreshSigns() int {
	flips := make([]int, len(s.users))
	parallel.Do(s.cfg.Workers, len(s.users), func(t int) {
		u := s.users[t]
		m := u.NumSamples()
		eff := make([]float64, m)
		lt := u.NumLabeled()
		copy(eff, u.Y[:lt])
		unlabeledSigns(eff[lt:], u.X, lt, s.w[t])
		if s.cfg.BalanceGuard && lt == 0 && m > 1 {
			balanceSigns(u.X, eff, s.w[t])
		}
		if prev := s.signs[t]; prev != nil {
			for i, e := range eff {
				if e != prev[i] {
					flips[t]++
				}
			}
		}
		s.signs[t] = eff
	})
	total := 0
	for _, f := range flips {
		total += f
	}
	return total
}

// balanceSigns prevents the all-one-side degenerate assignment for a
// zero-label user: if every sign agrees, the half of the samples with the
// smallest |margin| is flipped to the other side.
func balanceSigns(x *mat.Matrix, eff []float64, w mat.Vector) {
	first := eff[0]
	for _, e := range eff[1:] {
		if e != first {
			return
		}
	}
	// All identical: flip the floor(m/2) lowest-|margin| samples.
	m := x.Rows
	type scored struct {
		idx int
		abs float64
	}
	order := make([]scored, m)
	for i := 0; i < m; i++ {
		v := w.Dot(x.Row(i))
		if v < 0 {
			v = -v
		}
		order[i] = scored{i, v}
	}
	// Selection of the m/2 smallest by simple partial sort (m is small).
	for i := 0; i < m/2; i++ {
		min := i
		for j := i + 1; j < m; j++ {
			if order[j].abs < order[min].abs {
				min = j
			}
		}
		order[i], order[min] = order[min], order[i]
		eff[order[i].idx] = -first
	}
}

// solveConvexified runs the cutting-plane loop for the current
// linearization and returns the primal objective of problem (12),
// the number of cutting-plane rounds, and cumulative QP iterations.
func (s *centralState) solveConvexified() (float64, int, int, error) {
	qpIters := 0
	rounds := 0
	for round := 0; round < s.cfg.MaxCutIter; round++ {
		rounds = round + 1
		added, iters, err := s.cutRound(round)
		qpIters += iters
		if err != nil {
			return 0, rounds, qpIters, err
		}
		if added == 0 {
			break
		}
	}
	return s.objective(), rounds, qpIters, nil
}

// cutRound is one cutting-plane round: solve the restricted dual, search
// every user's most-violated constraint, add the violated ones. It returns
// the number of constraints added and the QP iterations spent.
func (s *centralState) cutRound(round int) (int, int, error) {
	cfg := s.cfg
	var roundStart time.Time
	if cfg.Obs.FlightEnabled() {
		roundStart = time.Now()
	}
	// Solve the restricted dual over the current working sets. With
	// empty sets the restricted optimum is w' = 0 (every margin is
	// then violated, seeding the first constraints); the CCCP signs
	// were already frozen from the pre-zeroing iterate.
	qpIters := 0
	if s.totalConstraints() > 0 {
		iters, err := s.solveRestrictedQP()
		qpIters = iters
		if err != nil {
			return 0, qpIters, err
		}
	} else {
		s.w0.Zero()
		for t := range s.w {
			s.w[t].Zero()
		}
	}
	// Per-user subproblem: each user's most-violated constraint (Eq. 14)
	// depends only on that user's iterate, signs, and working set, so
	// the search fans out across the pool. Candidates are gathered into
	// index-addressed slots and folded into the working sets in user
	// order afterwards, keeping insertion order (and therefore the QP
	// and every downstream float) identical for any worker count.
	cands := s.cands
	err := parallel.For(cfg.Workers, len(s.users), func(t int) error {
		u := s.users[t]
		c, bits, err := s.cuts[t].MostViolated(u.X, s.signs[t], s.weights[t], s.w[t])
		if err != nil {
			return fmt.Errorf("core: user %d: %w", t, err)
		}
		xi := optimize.Slack(&s.sets[t], s.w[t])
		viol := optimize.Violation(c, s.w[t], xi)
		cands[t] = candidate{}
		if viol > cfg.Epsilon {
			cands[t] = candidate{c: c, bits: bits, ok: true, viol: viol}
		}
		return nil
	})
	if err != nil {
		return 0, qpIters, err
	}
	added := 0
	for t := range cands {
		if cands[t].ok && s.sets[t].AddCut(cands[t].c, cands[t].bits) {
			added++
		}
	}
	if r := cfg.Obs; r != nil {
		r.Counter(obs.MetricCutRounds, "").Inc()
		r.Counter(obs.MetricConstraintsAdded, "").Add(int64(added))
		if r.FlightEnabled() {
			maxViol := 0.0
			for t := range cands {
				if cands[t].viol > maxViol {
					maxViol = cands[t].viol
				}
			}
			r.FlightRecord(obs.Record{Kind: obs.RecordCutRound, Round: round,
				User: -1, Violation: maxViol, Added: added,
				WorkingSet: s.totalConstraints(), Dur: time.Since(roundStart)})
		}
	}
	return added, qpIters, nil
}

func (s *centralState) totalConstraints() int {
	n := 0
	for t := range s.sets {
		n += s.sets[t].Len()
	}
	return n
}

// solveRestrictedQP solves the dual (16) restricted to the working sets and
// refreshes w0, w_t from the dual solution. Setup is incremental: the
// flattened order, Gram matrix, linear term and Lipschitz bound persist in
// the state and only the rows/columns of newly arrived constraints are
// computed (O(added·total·d) instead of O(total²·d) inner products per
// round); with Config.RebuildGram everything is rematerialized from scratch
// in the same canonical order, which the property tests pin bit-identical.
func (s *centralState) solveRestrictedQP() (int, error) {
	s.syncGramCache()
	n := len(s.flat)
	lot := s.scaleW0 // λ/T
	if s.cfg.RebuildGram {
		s.gram.Reset()
	}
	var gramStart time.Time
	if s.cfg.Obs != nil {
		gramStart = time.Now()
	}
	g := s.gram.Matrix()
	if n != s.gram.Len() { // the closures below exist only when the sets grew
		// Column-parallel growth: each new column is owned by one goroutine,
		// so goroutines write disjoint cells and the matrix is bit-identical
		// for any worker count.
		flat := s.flat
		g = s.gram.GrowDots(n, s.cfg.Workers,
			func(i int) mat.Vector { return flat[i].a },
			func(i, j int, dot float64) float64 {
				v := lot * dot
				if flat[i].user == flat[j].user {
					v += dot
				}
				return v
			})
	}
	if r := s.cfg.Obs; r != nil {
		r.Histogram(obs.MetricGramBuildSeconds, "").Observe(time.Since(gramStart).Seconds())
	}
	prob := qp.Problem{G: g, C: s.cvec, Groups: qp.GroupSpec{Groups: s.groups, Budgets: s.budgets}}
	// Warm start: the previous duals are a prefix of the current flat
	// order; extend with zeros for the constraints added since.
	for len(s.gamma) < n {
		s.gamma = append(s.gamma, 0)
	}
	gamma, qinfo, err := s.scratch.Solve(&prob, qp.Options{MaxIter: s.cfg.QPMaxIter, Tol: 1e-9,
		X0: s.gamma, LipschitzBound: s.gram.Bound(), Obs: s.cfg.Obs})
	if err != nil {
		return qinfo.Iterations, fmt.Errorf("core: restricted QP: %w", err)
	}
	copy(s.gamma, gamma)

	// Recover hyperplanes in place: w0 = (λ/T) Σ γ_i A_i ; v_t = Σ_{i∈t} γ_i A_i.
	s.w0.Zero()
	for t := range s.w {
		s.w[t].Zero()
	}
	for i, f := range s.flat {
		if gamma[i] == 0 {
			continue
		}
		s.w0.AddScaled(lot*gamma[i], f.a)
		s.w[f.user].AddScaled(gamma[i], f.a)
	}
	for t := range s.w {
		s.w[t].Add(s.w0)
	}
	return qinfo.Iterations, nil
}

// objective evaluates the primal objective of problem (12):
// ½||w'||² + (T/2λ)Σξ_t with ||w'||² = (T/λ)||w0||² + Σ||w_t−w0||².
func (s *centralState) objective() float64 {
	wNorm := s.w0.SquaredNorm() / s.scaleW0
	for t := range s.w {
		wNorm += mat.SquaredDist(s.w[t], s.w0)
	}
	obj := 0.5 * wNorm
	slackScale := float64(s.t) / (2 * s.cfg.Lambda)
	for t := range s.sets {
		obj += slackScale * optimize.Slack(&s.sets[t], s.w[t])
	}
	return obj
}
