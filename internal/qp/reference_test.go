package qp

// Reference implementations the hot path is held to: the projections as they
// stood before the sort-free rewrite (clone, then an interface-dispatched
// full descending sort). The threshold filter sums in input order, so the
// projections match these to DESIGN.md §11.3's bound (projectionBound); the
// non-finite fallback, b = 0 and the group machinery around the threshold
// match them bit for bit, as G·y over the support matches MulVecTo. Of the
// sorted scan, production code keeps only the non-finite fallback.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"plos/internal/mat"
	"plos/internal/race"
)

// refThreshold is the descending scan's θ: Σ max(x_i − θ, 0) = b.
func refThreshold(x mat.Vector, b float64) float64 {
	sorted := x.Clone()
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var cum float64
	theta := sorted[0] - b
	for i, v := range sorted {
		cum += v
		t := (cum - b) / float64(i+1)
		if v-t > 0 {
			theta = t
		} else {
			break
		}
	}
	return theta
}

func refProjectSimplex(x mat.Vector, b float64) {
	if len(x) == 0 {
		return
	}
	if b == 0 {
		x.Zero()
		return
	}
	theta := refThreshold(x, b)
	for i, v := range x {
		if v-theta > 0 {
			x[i] = v - theta
		} else {
			x[i] = 0
		}
	}
}

func refProjectBudget(x mat.Vector, b float64) {
	var clampedSum float64
	for _, v := range x {
		if v > 0 {
			clampedSum += v
		}
	}
	if clampedSum <= b {
		ProjectNonneg(x)
		return
	}
	refProjectSimplex(x, b)
}

func refGroupProject(s *GroupSpec, x mat.Vector) {
	covered := make([]bool, len(x))
	for g, idx := range s.Groups {
		buf := make(mat.Vector, 0, len(idx))
		for _, i := range idx {
			covered[i] = true
			buf = append(buf, x[i])
		}
		refProjectBudget(buf, s.Budgets[g])
		for k, i := range idx {
			x[i] = buf[k]
		}
	}
	for i, v := range x {
		if !covered[i] && v < 0 {
			x[i] = 0
		}
	}
}

func sameBits(t *testing.T, what string, got, want mat.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: entry %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// projectionBound is DESIGN.md §11.3's bound c·k·ε·M on how far the
// threshold filter's θ, and each entry of its projection, may sit from the
// descending scan's, for the k-vector x whose reference threshold is theta:
// c = 4, M the larger of max|x_i| and |θ_ref|.
func projectionBound(x mat.Vector, theta float64) float64 {
	m := math.Abs(theta)
	for _, v := range x {
		m = math.Max(m, math.Abs(v))
	}
	return 4 * float64(len(x)) * 0x1p-52 * m
}

// matchesReference fails unless got, the projection of x onto budget b, is
// within projectionBound of the reference's want entry by entry, with want's
// support but for entries within the bound of θ_ref; for b = 0 it must be
// want bit for bit.
func matchesReference(t *testing.T, what string, x, got, want mat.Vector, b float64) {
	t.Helper()
	if b == 0 || len(x) == 0 {
		sameBits(t, what, got, want)
		return
	}
	theta := refThreshold(x, b)
	bound := projectionBound(x, theta)
	for i := range got {
		if math.Float64bits(got[i]) == math.Float64bits(want[i]) {
			continue
		}
		if !(math.Abs(got[i]-want[i]) <= bound) {
			t.Fatalf("%s: entry %d = %v, reference %v: |Δ| %.3g over the bound %.3g", what, i, got[i], want[i],
				math.Abs(got[i]-want[i]), bound)
		}
		if (got[i] > 0) != (want[i] > 0) && !(math.Abs(x[i]-theta) <= bound) {
			t.Fatalf("%s: entry %d (x = %v) in one support only, %.3g from θ_ref %v (bound %.3g)", what, i, x[i],
				math.Abs(x[i]-theta), theta, bound)
		}
	}
}

// projectionCases covers the lengths on both sides of the stack buffer and
// the value patterns where the filter and the scan could part: ties, signed
// zeros, nothing positive, a sum landing exactly on the budget, magnitudes
// that absorb the budget or underflow, and non-finite entries (NaNs sort last
// in the scan). The huge and nans rows must match the reference bit for bit.
func projectionCases(r *rand.Rand) map[string][]mat.Vector {
	negZero := math.Copysign(0, -1)
	cases := map[string][]mat.Vector{}
	for _, n := range []int{0, 1, 2, 10, 50, 300} {
		normal, ties, zeros, neg, huge, exact, nans := make(mat.Vector, n), make(mat.Vector, n), make(mat.Vector, n),
			make(mat.Vector, n), make(mat.Vector, n), make(mat.Vector, n), make(mat.Vector, n)
		for i := 0; i < n; i++ {
			normal[i] = r.NormFloat64()
			ties[i] = float64(r.Intn(3)) * 0.25
			zeros[i] = []float64{0, negZero, 0.5, -0.5}[r.Intn(4)]
			neg[i] = -r.Float64() - 0.01
			huge[i] = []float64{1e300, -1e300, 5e-324, -5e-324, 1e-310, 3, math.MaxFloat64}[r.Intn(7)]
			exact[i] = 1 / float64(n) // Σ = b up to rounding
			nans[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 0}[r.Intn(6)]
		}
		for name, x := range map[string]mat.Vector{"normal": normal, "ties": ties, "zeros": zeros, "neg": neg,
			"huge": huge, "exact": exact, "nans": nans} {
			cases[name] = append(cases[name], x)
		}
	}
	return cases
}

func TestProjectionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for name, xs := range projectionCases(r) {
		for _, x := range xs {
			for _, b := range []float64{0, 1, 0.3, 1e-300, 1e300} {
				what := fmt.Sprintf("%s n=%d b=%g", name, len(x), b)
				sim, simRef, bud, budRef := x.Clone(), x.Clone(), x.Clone(), x.Clone()
				ProjectSimplex(sim, b)
				refProjectSimplex(simRef, b)
				ProjectBudget(bud, b)
				refProjectBudget(budRef, b)
				if name == "huge" || name == "nans" {
					sameBits(t, "ProjectSimplex "+what, sim, simRef)
					sameBits(t, "ProjectBudget "+what, bud, budRef)
					continue
				}
				matchesReference(t, "ProjectSimplex "+what, x, sim, simRef, b)
				matchesReference(t, "ProjectBudget "+what, x, bud, budRef, b)
			}
		}
	}
}

func TestGroupProjectMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 7, 64, 300} {
		whole := make([]int, n)
		for i := range whole {
			whole[i] = i
		}
		perm := r.Perm(n)
		specs := []GroupSpec{
			{Groups: [][]int{whole}, Budgets: []float64{1}},                                 // the device dual
			{Groups: [][]int{perm}, Budgets: []float64{0.5}},                                // one group, not in order
			{Groups: [][]int{perm[:n/2], perm[n/2 : n-n/4]}, Budgets: []float64{0.7, 0.01}}, // uncovered tail
			{}, // orthant only
		}
		for si := range specs {
			spec := &specs[si]
			var s Scratch
			s.grow(n)
			if err := s.proj.validate(spec); err != nil {
				t.Fatal(err)
			}
			if si == 0 && s.proj.whole != 0 {
				t.Fatalf("n=%d: the group listing 0…n−1 is not projected in place", n)
			}
			gathered := s            // sharing s's buffers, used in turn
			gathered.proj.whole = -1 // the gather path the in-place one must match bit for bit
			for rep := 0; rep < 20; rep++ {
				x := make(mat.Vector, n)
				for i := range x {
					if rep%2 == 0 {
						x[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(5)-2))
					} else {
						x[i] = 1 + 0.01*r.NormFloat64() // most of a group in its support
					}
				}
				got, want, pub, viaGather := x.Clone(), x.Clone(), x.Clone(), x.Clone()
				refGroupProject(spec, want)
				sum, m := positives(got)
				s.project(spec, got, sum, m, nil, nil, 0, 0)
				for g, idx := range spec.Groups {
					xg, gotg, wantg := make(mat.Vector, len(idx)), make(mat.Vector, len(idx)), make(mat.Vector, len(idx))
					for k, i := range idx {
						xg[k], gotg[k], wantg[k] = x[i], got[i], want[i]
					}
					matchesReference(t, fmt.Sprintf("spec %d n=%d group %d", si, n, g), xg, gotg, wantg, spec.Budgets[g])
				}
				for i, c := range s.proj.covered {
					if !c && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("spec %d n=%d: uncovered entry %d = %v, reference %v", si, n, i, got[i], want[i])
					}
				}
				project(spec, pub)
				sameBits(t, "GroupSpec.Project", pub, got)
				sum, m = positives(viaGather)
				gathered.project(spec, viaGather, sum, m, nil, nil, 0, 0)
				sameBits(t, "gathered group projection", viaGather, got)
			}
		}
	}
}

func FuzzProjectBudgetMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(10), 1.0, 0.0)
	f.Add(int64(2), uint8(70), 0.25, 3.0)
	f.Add(int64(3), uint8(3), 1e-12, -300.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, b, exp float64) {
		if !(b >= 0) || math.IsInf(b, 0) || math.IsNaN(exp) || math.Abs(exp) > 300 {
			t.Skip()
		}
		r := rand.New(rand.NewSource(seed))
		x := make(mat.Vector, n)
		for i := range x {
			switch r.Intn(6) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.Copysign(0, -1)
			case 2:
				x[i] = float64(r.Intn(4)) // ties
			default:
				x[i] = r.NormFloat64() * math.Pow(10, exp*r.Float64())
			}
		}
		got, want := x.Clone(), x.Clone()
		ProjectBudget(got, b)
		refProjectBudget(want, b)
		matchesReference(t, "ProjectBudget", x, got, want, b)
		got, want = x.Clone(), x.Clone()
		ProjectSimplex(got, b)
		refProjectSimplex(want, b)
		matchesReference(t, "ProjectSimplex", x, got, want, b)
	})
}

// checkSupportGrad holds s.mulVec over y's listed support then Sub to MulVecTo
// then Sub, bit for bit, on an n×n symmetric G (mirrored exactly, as GramCache
// builds it; some entries tiny or signed zeros) and a y whose non-zero entries
// are supp — the rest +0 or −0, and some of supp so small that their products
// underflow.
func checkSupportGrad(t *testing.T, s *Scratch, r *rand.Rand, n int, supp []int) {
	t.Helper()
	pick := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 1e-200
		case 1:
			return math.Copysign(0, -1)
		default:
			return r.NormFloat64()
		}
	}
	g := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := pick()
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	y, c := make(mat.Vector, n), make(mat.Vector, n)
	for i := range y {
		y[i] = math.Copysign(0, float64(r.Intn(2)*2-1))
		c[i] = r.NormFloat64()
	}
	for _, j := range supp {
		if y[j] = pick(); y[j] == 0 {
			y[j] = -1e-200
		}
	}
	s.grow(n)
	k := 0
	for j, v := range y {
		if v != 0 {
			s.supp[k], s.vals[k] = j, v
			k++
		}
	}
	s.mulVec(g, k)
	s.grad.Sub(c)
	want := make(mat.Vector, n)
	g.MulVecTo(want, y)
	want.Sub(c)
	sameBits(t, fmt.Sprintf("G·y − c over a support of %d in %d", len(supp), n), s.grad, want)
}

func TestSupportGradBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	var s Scratch
	for pass := 0; pass < 2; pass++ { // one scratch, growing, then shrinking and regrowing in place
		for size := 1; size <= 70; size++ { // every remainder of the 16- and 4-lane blocks
			n := size
			if pass == 1 {
				n = 71 - size
			}
			perm := r.Perm(n)
			for _, k := range []int{0, 1, n / 2, n - 1, n} {
				checkSupportGrad(t, &s, r, n, perm[:k])
			}
		}
	}
	s.grow(1)
	checkSupportGrad(t, &s, r, 2, []int{1}) // from n = 1 back up, within capacity
}

func FuzzSupportGradMatchesMulVec(f *testing.F) {
	f.Add(int64(1), uint8(26), uint8(9))
	f.Add(int64(2), uint8(7), uint8(0))
	f.Add(int64(3), uint8(70), uint8(35))
	f.Fuzz(func(t *testing.T, seed int64, n, k uint8) {
		size := int(n)%70 + 1
		r := rand.New(rand.NewSource(seed))
		var s Scratch
		checkSupportGrad(t, &s, r, size, r.Perm(size)[:int(k)%(size+1)])
	})
}

// refFilterBudget is projectBudget in its pass-per-job form: its own
// positives pass, Michelot's filter appending to buf, and the write pass.
func refFilterBudget(x []float64, b float64, buf []float64) {
	sum, m := 0.0, 0
	for _, v := range x {
		if v > 0 {
			sum += v
			m++
		}
	}
	switch {
	case sum <= b:
		ProjectNonneg(x)
		return
	case b == 0 || len(x) == 0:
		clear(x)
		return
	}
	set, theta := x, (sum-b)/float64(m)
	for ; theta-theta == 0; theta = (sum - b) / float64(m) {
		kept := buf[:0]
		sum = 0
		for _, v := range set {
			if v > theta {
				kept = append(kept, v)
				sum += v
			}
		}
		if len(kept) == m || len(kept) == 0 {
			break
		}
		set, m = kept, len(kept)
	}
	if theta-theta != 0 {
		theta = sortedThreshold(x, b, buf)
	}
	for i, v := range x {
		if v-theta > 0 {
			x[i] = v - theta
		} else {
			x[i] = 0
		}
	}
}

// refFilterProject projects x onto spec through refFilterBudget, every group
// gathered (the whole group too: a gather and scatter in order copy exactly),
// then clamps the uncovered indices.
func refFilterProject(spec *GroupSpec, x mat.Vector) {
	covered := make([]bool, len(x))
	for g, idx := range spec.Groups {
		buf := make([]float64, len(idx))
		for k, i := range idx {
			covered[i] = true
			buf[k] = x[i]
		}
		refFilterBudget(buf, spec.Budgets[g], make([]float64, len(idx)))
		for k, i := range idx {
			x[i] = buf[k]
		}
	}
	for i, c := range covered {
		if !c && x[i] < 0 {
			x[i] = 0
		}
	}
}

// refSolve is Scratch.Solve's loop in its pass-per-job form: y's support
// listed, grad zeroed and G·y added over it, Sub, copy and AddScaled for the
// step, the projection's own passes, the residual, the restart dot, the
// extrapolation and y's projection. Scratch.Solve must match it bit for bit —
// the iterate, Iterations, Converged, Residual and Objective.
func refSolve(p *Problem, opts Options) (mat.Vector, Info) {
	o := opts.withDefaults()
	n := len(p.C)
	if n == 0 {
		return mat.Vector{}, Info{Converged: true}
	}
	lip := o.LipschitzBound
	if lip <= 0 {
		lip = mat.MaxEigenvalueUpperBound(p.G)
	}
	if lip < 1e-12 {
		lip = 1e-12
	}
	step := 1 / lip
	x, y, grad, xNext := make(mat.Vector, n), make(mat.Vector, n), make(mat.Vector, n), make(mat.Vector, n)
	supp, vals := make([]int, n), make(mat.Vector, n)
	mulVec := func() {
		k := 0
		for j, v := range y {
			if v != 0 {
				supp[k], vals[k] = j, v
				k++
			}
		}
		grad.Zero()
		mat.AddScaledRows(grad, p.G, supp[:k], vals[:k])
	}
	if o.X0 != nil {
		copy(x, o.X0)
		refFilterProject(&p.Groups, x)
	}
	copy(y, x)
	tMom := 1.0

	info := Info{}
	for k := 0; k < o.MaxIter; k++ {
		info.Iterations = k + 1
		mulVec()
		grad.Sub(p.C)

		copy(xNext, y)
		xNext.AddScaled(-step, grad)
		refFilterProject(&p.Groups, xNext)

		res := 0.0
		for i := range xNext {
			if d := math.Abs(xNext[i]-y[i]) * lip; d > res {
				res = d
			}
		}
		info.Residual = res

		var dot float64
		for i := range x {
			dot += float64((y[i] - xNext[i]) * (xNext[i] - x[i]))
		}
		if dot > 0 {
			tMom = 1
			copy(y, xNext)
		} else {
			tNext := (1 + math.Sqrt(1+float64(4*tMom*tMom))) / 2
			beta := (tMom - 1) / tNext
			for i := range y {
				y[i] = xNext[i] + float64(beta*(xNext[i]-x[i]))
			}
			refFilterProject(&p.Groups, y)
			tMom = tNext
		}
		x, xNext = xNext, x

		if res <= o.Tol {
			info.Converged = true
			break
		}
	}
	p.G.MulVecTo(grad, x)
	info.Objective = float64(0.5*x.Dot(grad)) - p.C.Dot(x)
	return x, info
}

// checkSolveMatchesReference builds a problem from seed and holds one
// Scratch.Solve of it to refSolve, bit for bit. G is an exactly mirrored Gram
// of rank up to n, some of its rows zero. shape picks the groups: one listing
// 0…n−1 in order (the device dual, projected in place), a gathered partition
// leaving some indices uncovered, or none. kind picks the budgets (0, binding
// or loose), the linear term's pattern (plain; ±0 entries, on every zero row
// of G, where a −0 in the warm start then survives the step and the clamp; or
// infinite, NaN and huge entries, whose overflowing sums send the threshold to
// the sorted scan) and whether a warm start, itself projected first, holds
// signed zeros and negatives.
func checkSolveMatchesReference(t *testing.T, s *Scratch, seed int64, n, shape, kind uint8, maxIter int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	size := int(n) % 73
	a := mat.NewMatrix(size, 1+r.Intn(2*size+1))
	scale := math.Pow(10, float64(r.Intn(5)-2))
	for i := range a.Data {
		a.Data[i] = r.NormFloat64() * scale
	}
	zeroRow := make([]bool, size)
	if r.Intn(3) == 0 {
		for i := range zeroRow {
			if zeroRow[i] = r.Intn(4) == 0; zeroRow[i] {
				clear(a.Row(i))
			}
		}
	}
	c := make(mat.Vector, size)
	negZero := math.Copysign(0, -1)
	for i := range c {
		c[i] = r.NormFloat64() + 0.5
		switch {
		case kind%3 == 1 && (zeroRow[i] || r.Intn(3) == 0):
			c[i] = []float64{0, negZero}[r.Intn(2)]
		case kind%3 == 2 && r.Intn(6) == 0:
			c[i] = []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308}[r.Intn(5)]
		}
	}
	budget := []float64{0, 0.05 + r.Float64(), 1e6}[kind/3%3]
	var spec GroupSpec
	switch shape % 3 {
	case 0:
		whole := make([]int, size)
		for i := range whole {
			whole[i] = i
		}
		spec = GroupSpec{Groups: [][]int{whole}, Budgets: []float64{budget}}
	case 1:
		perm := r.Perm(size)
		cut := r.Intn(size + 1)
		covered := perm[:size-size/4]
		spec = GroupSpec{Groups: [][]int{covered[:min(cut, len(covered))], covered[min(cut, len(covered)):]},
			Budgets: []float64{budget, budget * 2}}
	}
	opts := Options{MaxIter: maxIter, Tol: []float64{1e-8, 1e-3, 1e-300}[r.Intn(3)]}
	if r.Intn(2) == 0 {
		opts.LipschitzBound = mat.MaxEigenvalueUpperBound(a.Gram()) * (1 + r.Float64())
	}
	if kind/9%2 == 1 {
		opts.X0 = make(mat.Vector, size)
		for i := range opts.X0 {
			opts.X0[i] = []float64{negZero, negZero, 0, -1, r.Float64(), r.Float64() * budget}[r.Intn(6)]
		}
	}
	p := &Problem{G: a.Gram(), C: c, Groups: spec}
	want, winfo := refSolve(p, opts)
	got, ginfo, err := s.Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	what := fmt.Sprintf("seed %d n=%d shape %d kind %d MaxIter %d", seed, size, shape%3, kind, maxIter)
	sameOrNaN(t, what+": x", got, want)
	if ginfo.Iterations != winfo.Iterations || ginfo.Converged != winfo.Converged {
		t.Fatalf("%s: %d iterations (converged %v), reference %d (%v)", what,
			ginfo.Iterations, ginfo.Converged, winfo.Iterations, winfo.Converged)
	}
	sameOrNaN(t, what+": residual, objective", mat.Vector{ginfo.Residual, ginfo.Objective},
		mat.Vector{winfo.Residual, winfo.Objective})
}

// sameOrNaN is sameBits but for NaNs, which match any NaN: which NaN an
// operation on two NaNs returns is not specified, and the compiler orders
// the operands of a sum as it likes.
func sameOrNaN(t *testing.T, what string, got, want mat.Vector) {
	t.Helper()
	got, want = got.Clone(), want.Clone()
	for i := 0; i < len(got) && i < len(want); i++ {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			got[i], want[i] = 0, 0
		}
	}
	sameBits(t, what, got, want)
}

func TestSolveMatchesReference(t *testing.T) {
	var s Scratch // one scratch across shapes and sizes, as a worker keeps it
	for seed := int64(0); seed < 400; seed++ {
		maxIter := int(seed%200) + 1
		if seed%2 == 0 {
			maxIter = int(seed%5) + 1 // the warm start's signed zeros still in the iterate
		}
		checkSolveMatchesReference(t, &s, seed, uint8(seed*7), uint8(seed), uint8(seed/3), maxIter)
	}
}

// FuzzSolveMatchesReference seeds every n 0–72, so every remainder of the
// passes' four-lane blocks and of G·y's lane masks, on the device's shape
// (one group listing every index), each with a budget that binds (kind 3)
// and one that does not (kind 6), and four mixed seeds besides.
func FuzzSolveMatchesReference(f *testing.F) {
	for n := 0; n <= 72; n++ {
		f.Add(int64(n), uint8(n), uint8(0), uint8(3), uint8(n))
		f.Add(int64(n), uint8(n), uint8(0), uint8(6), uint8(2*n))
	}
	f.Add(int64(1), uint8(26), uint8(0), uint8(1), uint8(100))
	f.Add(int64(2), uint8(5), uint8(0), uint8(20), uint8(0))
	f.Add(int64(3), uint8(30), uint8(1), uint8(11), uint8(199))
	f.Add(int64(4), uint8(12), uint8(2), uint8(2), uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, n, shape, kind, maxIter uint8) {
		var s Scratch
		checkSolveMatchesReference(t, &s, seed, n, shape, kind, int(maxIter)%200+1)
	})
}

func TestGrowDotsBitIdenticalToCellForm(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	const n, dim = 23, 37
	rows := make([]mat.Vector, n)
	for i := range rows {
		rows[i] = make(mat.Vector, dim)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64()
		}
	}
	row := func(i int) mat.Vector { return rows[i] }
	scale := func(i, j int, dot float64) float64 { return dot/0.7 + float64((i+j)%2)*dot }
	cell := func(i, j int) float64 { return scale(i, j, rows[i].Dot(rows[j])) }
	for _, workers := range []int{1, 3} {
		var dots, cells GramCache
		for _, size := range []int{1, 2, 5, 5, 6, 13, 23} { // every remainder of a column mod 4
			got := dots.GrowDots(size, workers, row, scale)
			want := cells.Grow(size, 1, cell)
			sameBits(t, "GrowDots matrix", got.Data, want.Data)
			if math.Float64bits(dots.Bound()) != math.Float64bits(cells.Bound()) {
				t.Fatalf("size %d: bound %v, cell form %v", size, dots.Bound(), cells.Bound())
			}
		}
	}
}

// TestGramCacheGrowsInPlace pins the geometric backing array: growing one
// constraint at a time reallocates O(log n) times, and a Reset keeps the
// storage for the next CCCP round.
func TestGramCacheGrowsInPlace(t *testing.T) {
	cell, full := randCell(5, 40)
	var c GramCache
	reallocs := 0
	for n := 1; n <= 40; n++ {
		before := cap(c.buf)
		c.Grow(n, 1, cell)
		if cap(c.buf) != before {
			reallocs++
		}
	}
	if reallocs > 8 {
		t.Errorf("40 one-row grows reallocated %d times, want O(log n)", reallocs)
	}
	sameBits(t, "grown matrix", c.Matrix().Data, full.Data)
	c.Reset()
	before := cap(c.buf)
	c.Grow(40, 1, cell)
	if cap(c.buf) != before {
		t.Error("Reset dropped the backing array")
	}
	sameBits(t, "regrown matrix", c.Matrix().Data, full.Data)
}

// TestScratchGrowsGeometrically pins the scratch's 1.5× growth: solving a
// working set that grows one constraint at a time reallocates O(log n) times,
// and a smaller solve after a larger one keeps the storage.
func TestScratchGrowsGeometrically(t *testing.T) {
	var s Scratch
	reallocs := 0
	for n := 1; n <= 200; n++ {
		x, supp, set := cap(s.x), cap(s.supp), cap(s.proj.set)
		s.grow(n)
		if cap(s.x) != x || cap(s.supp) != supp || cap(s.proj.set) != set {
			reallocs++
		}
		if len(s.x) != n || len(s.supp) != n || len(s.vals) != n || len(s.proj.covered) != n ||
			len(s.proj.gather) != n || len(s.proj.set) != n {
			t.Fatalf("grow(%d) left a buffer of another length", n)
		}
	}
	if reallocs > 12 {
		t.Errorf("200 one-constraint grows reallocated %d times, want O(log n)", reallocs)
	}
	before := cap(s.x)
	s.grow(7)
	s.grow(200)
	if cap(s.x) != before {
		t.Error("shrinking and regrowing reallocated")
	}
}

// TestGramCacheGrowAllocs: one worker fills new columns inline, so a Grow or
// GrowDots within capacity allocates nothing.
func TestGramCacheGrowAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 40
	cell, full := randCell(12, n)
	row := func(i int) mat.Vector { return full.Row(i) }
	scale := func(_, _ int, dot float64) float64 { return dot / 3 }
	var c GramCache
	c.Grow(n, 1, cell)
	if a := testing.AllocsPerRun(20, func() { c.Reset(); c.Grow(n/2, 1, cell); c.Grow(n, 1, cell) }); a != 0 {
		t.Errorf("Grow within capacity allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { c.Reset(); c.GrowDots(n/2, 1, row, scale); c.GrowDots(n, 1, row, scale) }); a != 0 {
		t.Errorf("GrowDots within capacity allocates %v times, want 0", a)
	}
}

// TestSolveNearlySymmetricG: FISTA steps along Gᵀ·y, which is G·y only when
// G is symmetric. A Gram whose mirrored cells are computed apart — (i, j)
// summed ascending, (j, i) descending, so some pairs differ in the last bits
// — still solves to the optimum of the exactly mirrored Gram, to rounding.
func TestSolveNearlySymmetricG(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	const n, d = 24, 40
	a := mat.NewMatrix(n, d)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	sym := a.Gram()
	asym, differ := sym.Clone(), 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var dot float64
			for k := d - 1; k >= 0; k-- {
				dot += a.At(j, k) * a.At(i, k)
			}
			asym.Set(j, i, dot)
			if dot != sym.At(i, j) {
				differ++
			}
		}
	}
	if differ == 0 {
		t.Fatal("every mirrored pair agrees: the test needs a G that is not symmetric")
	}
	c := make(mat.Vector, n)
	for i := range c {
		c[i] = 5 + 5*r.NormFloat64()
	}
	groups := GroupSpec{Groups: [][]int{{0, 2, 4, 6, 8, 10, 12}, {1, 3, 5, 7}}, Budgets: []float64{0.05, 0.5}}
	opts := Options{MaxIter: 50000, Tol: 1e-11}
	want, winfo, err := Solve(&Problem{G: sym, C: c, Groups: groups}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, ginfo, err := Solve(&Problem{G: asym, C: c, Groups: groups}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("x[%d] = %v, mirrored Gram's %v", i, got[i], want[i])
		}
	}
	if math.Abs(ginfo.Objective-winfo.Objective) > 1e-12*(1+math.Abs(winfo.Objective)) {
		t.Errorf("objective %v, mirrored Gram's %v", ginfo.Objective, winfo.Objective)
	}
}

func TestMaxIterationsErrorText(t *testing.T) {
	p := &Problem{G: mat.FromRows([][]float64{{2, 1}, {1, 2}}), C: mat.Vector{1, 1}}
	_, info, err := Solve(p, Options{MaxIter: 1, Tol: 1e-300})
	if err == nil {
		t.Fatal("capped solve returned no error")
	}
	want := "qp: maximum iterations reached after 1 iterations (residual " // as fmt.Errorf("%w after …") printed it
	if got := err.Error(); len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("error text %q, want prefix %q", got, want)
	}
	if info.Converged {
		t.Error("capped solve reported Converged")
	}
}

// Allocation pins. Counts are exact floors, not budgets: a new allocation on
// any of these paths is a regression of the zero-alloc steady state.
func TestProjectionAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := rand.New(rand.NewSource(19))
	src, x := make(mat.Vector, 64), make(mat.Vector, 64)
	for i := range src {
		src[i] = r.NormFloat64()
	}
	if a := testing.AllocsPerRun(100, func() { copy(x, src); ProjectSimplex(x, 1) }); a != 0 {
		t.Errorf("ProjectSimplex(n=64) allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { copy(x, src); ProjectBudget(x, 1) }); a != 0 {
		t.Errorf("ProjectBudget(n=64) allocates %v times, want 0", a)
	}
	// Nothing positive: the face's filter starts from every entry.
	for i := range src {
		src[i] = -math.Abs(src[i])
	}
	if a := testing.AllocsPerRun(100, func() { copy(x, src); ProjectSimplex(x, 1) }); a != 0 {
		t.Errorf("ProjectSimplex(all negative) allocates %v times, want 0", a)
	}
}

func TestSolveAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 60
	cell, _ := randCell(9, n)
	var cache GramCache
	g := cache.Grow(n, 1, cell)
	groups := GroupSpec{Groups: make([][]int, 6), Budgets: make([]float64, 6)}
	for i := 0; i < n-5; i++ { // five indices stay uncovered
		groups.Groups[i%6] = append(groups.Groups[i%6], i)
	}
	for k := range groups.Budgets {
		groups.Budgets[k] = 0.05
	}
	c := make(mat.Vector, n)
	for i := range c {
		c[i] = 1
	}
	p := &Problem{G: g, C: c, Groups: groups}
	var s Scratch
	opts := Options{MaxIter: 25, LipschitzBound: cache.Bound(), Scratch: &s, X0: make(mat.Vector, n)}
	if _, info, _ := Solve(p, opts); info.Converged {
		t.Fatal("workload must stop on MaxIter so the error allocation is counted")
	}
	if a := testing.AllocsPerRun(20, func() { _, _, _ = Solve(p, opts) }); a > 2 {
		t.Errorf("Solve with Scratch allocates %v times, want <= 2 (the solution and the error)", a)
	}
	if a := testing.AllocsPerRun(20, func() { _, _, _ = s.Solve(p, opts) }); a != 0 {
		t.Errorf("Scratch.Solve allocates %v times, want 0", a)
	}
	x := make(mat.Vector, n)
	if a := testing.AllocsPerRun(20, func() { s.project(&p.Groups, x, 0, 0, nil, nil, 0, 0) }); a != 0 {
		t.Errorf("scratch-backed group projection allocates %v times, want 0", a)
	}
	// The device duals: dist-inproc's, whose one group covers 0…25 and is
	// projected in place, the budget binding, and shard-plane's five cuts
	// under a loose budget; G·y runs over y's support.
	for _, dd := range []*Problem{deviceDual(), cutDual(5, 5, 4)} {
		ds := new(Scratch)
		dopts := Options{MaxIter: 100, Tol: 1e-300, LipschitzBound: mat.MaxEigenvalueUpperBound(dd.G)}
		if _, _, err := ds.Solve(dd, dopts); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() { _, _, _ = ds.Solve(dd, dopts) }); a != 0 {
			t.Errorf("Scratch.Solve on the n=%d device dual allocates %v times, want 0", len(dd.C), a)
		}
	}
}

// deviceDual is a device's one-slack dual at dist-inproc's shape: k = 26
// cuts, one group listing them in order, budget 1, and a linear term that
// leaves 20 of the 26 entries positive going into the projection, their sum
// about 4, and 10 in the support of the solution.
func deviceDual() *Problem { return cutDual(26, 26, 1) }

// cutDual is a one-slack dual over k cuts drawn from seed: one group listing
// them in order under budget b, the linear term about 1 but −1 at every
// fourth cut.
func cutDual(k int, seed int64, b float64) *Problem {
	r := rand.New(rand.NewSource(seed))
	a := mat.NewMatrix(k, 40)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64() / 6
	}
	c, whole := make(mat.Vector, k), make([]int, k)
	for i := range c {
		c[i], whole[i] = 1+0.1*r.NormFloat64(), i
		if i%4 == 3 {
			c[i] = -1
		}
	}
	return &Problem{G: a.Gram(), C: c, Groups: GroupSpec{Groups: [][]int{whole}, Budgets: []float64{b}}}
}

// BenchmarkScratchSolveDeviceDual is one device solve at four dual sizes —
// shard-plane's 5 cuts, 20, dist-inproc's 26 and 50 — on the AVX passes
// ("kernel") and on their Go loops ("go"): 100 FISTA iterations
// warm-started from the previous solution.
func BenchmarkScratchSolveDeviceDual(b *testing.B) {
	for _, n := range []int{5, 20, 26, 50} {
		p, s := cutDual(n, int64(n), 1), new(Scratch)
		opts := Options{MaxIter: 100, Tol: 1e-300, LipschitzBound: mat.MaxEigenvalueUpperBound(p.G)}
		x, _, _ := s.Solve(p, opts)
		opts.X0 = x.Clone()
		for _, path := range []string{"kernel", "go"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path), func(b *testing.B) {
				defer setKernels(path == "kernel")()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, _, _ = s.Solve(p, opts)
				}
			})
		}
	}
}

// BenchmarkProjectBudget times the solver's entry (caller-owned buffer) on
// standard-normal inputs and at two device shapes: dist-inproc's dual step,
// 20 of 26 entries positive and the budget binding, and shard-plane's five
// cuts under a loose budget, where the clamp is the projection.
func BenchmarkProjectBudget(b *testing.B) {
	normal := func(k int) mat.Vector {
		r := rand.New(rand.NewSource(1))
		x := make(mat.Vector, k)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		return x
	}
	p, s := deviceDual(), new(Scratch)
	lip := mat.MaxEigenvalueUpperBound(p.G)
	x, _, _ := s.Solve(p, Options{MaxIter: 100, Tol: 1e-300, LipschitzBound: lip})
	step := p.G.MulVec(x) // the FISTA step from the solution: x − (Gx − c)/L
	step.Sub(p.C)
	step.Scale(-1 / lip)
	step.Add(x)
	for _, row := range []struct {
		name string
		src  mat.Vector
	}{
		{"k=10", normal(10)},
		{"k=32", normal(32)},
		{"k=300", normal(300)},
		{"k=26,binding", step},
		{"k=5,loose", mat.Vector{0.1, -0.2, 0.15, 0.05, -0.3}},
	} {
		b.Run(row.name, func(b *testing.B) {
			x, buf := make(mat.Vector, len(row.src)), make([]float64, len(row.src))
			for i := 0; i < b.N; i++ {
				copy(x, row.src)
				projectBudget(x, 1, buf, false)
			}
		})
	}
}
