package qp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plos/internal/mat"
)

func TestSolveUnconstrainedInterior(t *testing.T) {
	// min ½xᵀGx − cᵀx with G = I, c = (0.2, 0.3): optimum x = c, interior
	// to budget 1, all nonnegative.
	p := &Problem{
		G:      mat.Identity(2),
		C:      mat.Vector{0.2, 0.3},
		Groups: GroupSpec{Groups: [][]int{{0, 1}}, Budgets: []float64{1}},
	}
	x, info, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !info.Converged {
		t.Error("should converge")
	}
	if !x.Equal(mat.Vector{0.2, 0.3}, 1e-6) {
		t.Errorf("x = %v", x)
	}
	if r := kktResidual(p, x); r > 1e-6 {
		t.Errorf("KKT residual = %v", r)
	}
}

func TestSolveActiveBudget(t *testing.T) {
	// Unconstrained optimum x = (2,2) violates budget 1; solution lies on
	// the simplex face. By symmetry x = (0.5, 0.5).
	p := &Problem{
		G:      mat.Identity(2),
		C:      mat.Vector{2, 2},
		Groups: GroupSpec{Groups: [][]int{{0, 1}}, Budgets: []float64{1}},
	}
	x, _, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !x.Equal(mat.Vector{0.5, 0.5}, 1e-6) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveActiveNonnegativity(t *testing.T) {
	// c has a negative component: that coordinate pins to 0.
	p := &Problem{
		G:      mat.Identity(2),
		C:      mat.Vector{-1, 0.25},
		Groups: GroupSpec{Groups: [][]int{{0, 1}}, Budgets: []float64{10}},
	}
	x, _, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !x.Equal(mat.Vector{0, 0.25}, 1e-6) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveZeroDimension(t *testing.T) {
	p := &Problem{G: mat.NewMatrix(0, 0), C: mat.Vector{}}
	x, info, err := Solve(p, Options{})
	if err != nil || len(x) != 0 || !info.Converged {
		t.Errorf("zero-dim solve: x=%v info=%+v err=%v", x, info, err)
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	p := &Problem{G: mat.Identity(3), C: mat.Vector{1, 2}}
	if _, _, err := Solve(p, Options{}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestSolveWarmStartSizeMismatch(t *testing.T) {
	// Regression: a mis-sized warm start used to panic inside the solver
	// (index out of range copying X0); it must instead fail like any other
	// malformed input, wrapping ErrWarmStartSize.
	p := &Problem{
		G:      mat.Identity(3),
		C:      mat.Vector{0.1, 0.2, 0.3},
		Groups: GroupSpec{Groups: [][]int{{0, 1, 2}}, Budgets: []float64{1}},
	}
	for _, x0 := range []mat.Vector{{1}, {1, 2}, {1, 2, 3, 4}} {
		_, _, err := Solve(p, Options{X0: x0})
		if !errors.Is(err, ErrWarmStartSize) {
			t.Errorf("X0 len %d: err = %v, want ErrWarmStartSize", len(x0), err)
		}
	}
	// Zero-dimensional problems validate X0 too (the check precedes the
	// n == 0 early return).
	zp := &Problem{G: mat.NewMatrix(0, 0), C: mat.Vector{}}
	if _, _, err := Solve(zp, Options{X0: mat.Vector{1}}); !errors.Is(err, ErrWarmStartSize) {
		t.Errorf("zero-dim mis-sized X0: err = %v, want ErrWarmStartSize", err)
	}
}

func TestSolveInvalidGroups(t *testing.T) {
	p := &Problem{
		G:      mat.Identity(2),
		C:      mat.Vector{1, 1},
		Groups: GroupSpec{Groups: [][]int{{7}}, Budgets: []float64{1}},
	}
	if _, _, err := Solve(p, Options{}); err == nil {
		t.Error("expected group validation error")
	}
}

func TestSolveMaxIterationsReturnsIterate(t *testing.T) {
	// Ill-conditioned problem with a 1-iteration budget must return
	// ErrMaxIterations wrapped, plus a feasible iterate.
	g := mat.FromRows([][]float64{{1000, 0}, {0, 0.001}})
	p := &Problem{
		G:      g,
		C:      mat.Vector{1, 1},
		Groups: GroupSpec{Groups: [][]int{{0, 1}}, Budgets: []float64{100}},
	}
	x, info, err := Solve(p, Options{MaxIter: 1})
	if !errors.Is(err, ErrMaxIterations) {
		t.Fatalf("err = %v, want ErrMaxIterations", err)
	}
	if info.Converged {
		t.Error("info.Converged should be false")
	}
	if !feasible(&p.Groups, x, 1e-9) {
		t.Error("early-stopped iterate must be feasible")
	}
}

func TestSolveWarmStart(t *testing.T) {
	p := &Problem{
		G:      mat.Identity(3),
		C:      mat.Vector{0.1, 0.2, 0.3},
		Groups: GroupSpec{Groups: [][]int{{0, 1, 2}}, Budgets: []float64{1}},
	}
	cold, coldInfo, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmInfo, err := Solve(p, Options{X0: cold})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Equal(cold, 1e-6) {
		t.Errorf("warm restart drifted: %v vs %v", warm, cold)
	}
	if warmInfo.Iterations > coldInfo.Iterations {
		t.Errorf("warm start took more iterations (%d) than cold (%d)",
			warmInfo.Iterations, coldInfo.Iterations)
	}
}

func TestSolveLinearObjective(t *testing.T) {
	// G = 0: minimize −cᵀx over the budget set. Optimum puts the whole
	// budget on the largest c coordinate.
	p := &Problem{
		G:      mat.NewMatrix(3, 3),
		C:      mat.Vector{1, 3, 2},
		Groups: GroupSpec{Groups: [][]int{{0, 1, 2}}, Budgets: []float64{1}},
	}
	x, _, err := Solve(p, Options{MaxIter: 20000, Tol: 1e-7})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(x[1]-1) > 1e-3 || x[0] > 1e-3 || x[2] > 1e-3 {
		t.Errorf("x = %v, want ~(0,1,0)", x)
	}
}

func randomPSDProblem(r *rand.Rand, n, groups int) *Problem {
	m := mat.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	g := m.Gram() // PSD
	c := make(mat.Vector, n)
	for i := range c {
		c[i] = r.NormFloat64() * 2
	}
	// Random disjoint groups over a prefix of the indices.
	perm := r.Perm(n)
	spec := GroupSpec{}
	at := 0
	for gi := 0; gi < groups && at < n; gi++ {
		size := r.Intn(n-at) + 1
		spec.Groups = append(spec.Groups, append([]int(nil), perm[at:at+size]...))
		spec.Budgets = append(spec.Budgets, r.Float64()*3)
		at += size
	}
	return &Problem{G: g, C: c, Groups: spec}
}

// Property: on random PSD problems the solver returns a feasible point with
// a small KKT residual, and no random feasible perturbation improves the
// objective (local optimality = global for convex problems).
func TestPropertySolverKKTAndOptimality(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%12) + 2
		groups := int(gRaw%3) + 1
		p := randomPSDProblem(r, n, groups)
		x, _, err := Solve(p, Options{MaxIter: 20000, Tol: 1e-9})
		if err != nil {
			return false
		}
		if !feasible(&p.Groups, x, 1e-8) {
			return false
		}
		if kktResidual(p, x) > 1e-5 {
			return false
		}
		fx := Objective(p, x)
		for trial := 0; trial < 20; trial++ {
			cand := x.Clone()
			for i := range cand {
				cand[i] += r.NormFloat64() * 0.1
			}
			project(&p.Groups, cand)
			if Objective(p, cand) < fx-1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: warm-starting from the solution converges immediately-ish and
// to the same objective.
func TestPropertyWarmStartStable(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		p := randomPSDProblem(r, n, 2)
		x1, _, err := Solve(p, Options{MaxIter: 20000, Tol: 1e-9})
		if err != nil {
			return false
		}
		x2, _, err := Solve(p, Options{MaxIter: 20000, Tol: 1e-9, X0: x1})
		if err != nil {
			return false
		}
		return math.Abs(Objective(p, x1)-Objective(p, x2)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// kktResidual returns the projected-gradient optimality residual
// ||x − Π(x − ∇f(x))||∞ of a feasible point: zero iff x satisfies the KKT
// conditions of the problem.
func kktResidual(p *Problem, x mat.Vector) float64 {
	grad := p.G.MulVec(x)
	grad.Sub(p.C)
	z := x.Clone()
	z.Sub(grad)
	project(&p.Groups, z)
	var res float64
	for i := range z {
		if d := math.Abs(z[i] - x[i]); d > res {
			res = d
		}
	}
	return res
}
