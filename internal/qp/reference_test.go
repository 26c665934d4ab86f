package qp

// Reference implementations the hot path is held to, bit for bit: the
// projections as they stood before the sort-free rewrite (clone, then an
// interface-dispatched full descending sort), and a solve built on them.
// They live only here; production code has no fallback path.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"plos/internal/mat"
	"plos/internal/race"
)

func refProjectSimplex(x mat.Vector, b float64) {
	if len(x) == 0 {
		return
	}
	if b == 0 {
		x.Zero()
		return
	}
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

// projectionCases covers the lengths on both sides of the stack buffer and
// the value patterns where a different sort could show: ties, signed zeros,
// nothing positive, a sum landing exactly on the budget, magnitudes that
// absorb the budget or underflow, and non-finite entries (NaNs sort last in
// both implementations).
func projectionCases(r *rand.Rand) []mat.Vector {
	negZero := math.Copysign(0, -1)
	var cases []mat.Vector
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
		cases = append(cases, normal, ties, zeros, neg, huge, exact, nans)
	}
	return cases
}

func TestProjectionBitIdenticalToReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, x := range projectionCases(r) {
		for _, b := range []float64{0, 1, 0.3, 1e-300, 1e300} {
			got, want := x.Clone(), x.Clone()
			ProjectSimplex(got, b)
			refProjectSimplex(want, b)
			sameBits(t, "ProjectSimplex", got, want)
			got, want = x.Clone(), x.Clone()
			ProjectBudget(got, b)
			refProjectBudget(want, b)
			sameBits(t, "ProjectBudget", got, want)
		}
	}
}

func TestGroupProjectBitIdenticalToReference(t *testing.T) {
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
			if err := spec.validate(s.proj.covered); err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 20; rep++ {
				x := make(mat.Vector, n)
				for i := range x {
					x[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(5)-2))
				}
				want, pub := x.Clone(), x.Clone()
				refGroupProject(spec, want)
				s.proj.project(spec, x)
				sameBits(t, "scratch-backed group projection", x, want)
				spec.Project(pub)
				sameBits(t, "GroupSpec.Project", pub, want)
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
		sameBits(t, "ProjectBudget", got, want)
		got, want = x.Clone(), x.Clone()
		ProjectSimplex(got, b)
		refProjectSimplex(want, b)
		sameBits(t, "ProjectSimplex", got, want)
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
	// Stage two (nothing positive, so the non-positive run is sorted too).
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
	c.Fill(1)
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
	if a := testing.AllocsPerRun(20, func() { s.proj.project(&p.Groups, x) }); a != 0 {
		t.Errorf("scratch-backed group projection allocates %v times, want 0", a)
	}
}

func BenchmarkProjectBudget(b *testing.B) {
	for _, k := range []int{10, 32, 300} {
		b.Run(map[int]string{10: "k=10", 32: "k=32", 300: "k=300"}[k], func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			src, x, buf := make(mat.Vector, k), make(mat.Vector, k), make([]float64, k)
			for i := range src {
				src[i] = r.NormFloat64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x, src)
				projectBudget(x, 1, buf) // the solver's entry: caller-owned sort buffer
			}
		})
	}
}
