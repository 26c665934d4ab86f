package qp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plos/internal/mat"
)

func TestProjectNonneg(t *testing.T) {
	x := mat.Vector{-1, 2, -3, 0}
	ProjectNonneg(x)
	if !x.Equal(mat.Vector{0, 2, 0, 0}, 0) {
		t.Errorf("got %v", x)
	}
}

func TestProjectSimplexKnown(t *testing.T) {
	tests := []struct {
		name string
		x    mat.Vector
		b    float64
		want mat.Vector
	}{
		{"already on simplex", mat.Vector{0.5, 0.5}, 1, mat.Vector{0.5, 0.5}},
		{"uniform overflow", mat.Vector{1, 1}, 1, mat.Vector{0.5, 0.5}},
		{"one dominant", mat.Vector{10, 0}, 1, mat.Vector{1, 0}},
		{"negative dropped", mat.Vector{1, -5}, 1, mat.Vector{1, 0}},
		{"zero budget", mat.Vector{3, 4}, 0, mat.Vector{0, 0}},
		{"scaled budget", mat.Vector{4, 2}, 2, mat.Vector{2, 0}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			x := tc.x.Clone()
			ProjectSimplex(x, tc.b)
			if !x.Equal(tc.want, 1e-12) {
				t.Errorf("got %v, want %v", x, tc.want)
			}
		})
	}
}

func TestProjectBudgetInterior(t *testing.T) {
	// Sum under budget: clamping is the projection.
	x := mat.Vector{0.2, -1, 0.3}
	ProjectBudget(x, 1)
	if !x.Equal(mat.Vector{0.2, 0, 0.3}, 1e-12) {
		t.Errorf("got %v", x)
	}
	// Sum over budget: lands on the simplex face.
	y := mat.Vector{2, 2}
	ProjectBudget(y, 1)
	if !y.Equal(mat.Vector{0.5, 0.5}, 1e-12) {
		t.Errorf("got %v", y)
	}
}

func TestProjectionPanicsOnNegativeBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative budget should panic")
		}
	}()
	ProjectBudget(mat.Vector{1}, -1)
}

// bruteForceProject finds the projection by dense grid + local refinement
// for 2-d cases, used to validate the analytic projection.
func bruteForceProject2(x mat.Vector, b float64) mat.Vector {
	best := mat.Vector{0, 0}
	bestD := math.Inf(1)
	const n = 400
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			p := mat.Vector{b * float64(i) / n, b * float64(j) / n}
			if p[0]+p[1] > b+1e-12 {
				continue
			}
			if d := mat.SquaredDist(p, x); d < bestD {
				bestD, best = d, p
			}
		}
	}
	return best
}

func TestProjectBudgetMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		x := mat.Vector{r.NormFloat64() * 2, r.NormFloat64() * 2}
		got := x.Clone()
		ProjectBudget(got, 1)
		want := bruteForceProject2(x, 1)
		if !got.Equal(want, 0.01) {
			t.Fatalf("trial %d: x=%v got=%v want~%v", trial, x, got, want)
		}
	}
}

// Property: projection output is feasible and idempotent.
func TestPropertyProjectionFeasibleIdempotent(t *testing.T) {
	f := func(seed int64, nRaw uint8, bRaw float64) bool {
		n := int(nRaw%20) + 1
		b := math.Abs(math.Mod(bRaw, 10))
		if math.IsNaN(b) {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		x := make(mat.Vector, n)
		for i := range x {
			x[i] = r.NormFloat64() * 5
		}
		ProjectBudget(x, b)
		// Feasible.
		var sum float64
		for _, v := range x {
			if v < 0 {
				return false
			}
			sum += v
		}
		if sum > b+1e-9 {
			return false
		}
		// Idempotent.
		y := x.Clone()
		ProjectBudget(y, b)
		return y.Equal(x, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the projection is the nearest feasible point — no random
// feasible point is closer.
func TestPropertyProjectionOptimality(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%10) + 1
		r := rand.New(rand.NewSource(seed))
		x := make(mat.Vector, n)
		for i := range x {
			x[i] = r.NormFloat64() * 3
		}
		proj := x.Clone()
		ProjectBudget(proj, 1)
		dProj := mat.SquaredDist(proj, x)
		for trial := 0; trial < 30; trial++ {
			cand := make(mat.Vector, n)
			for i := range cand {
				cand[i] = r.Float64()
			}
			ProjectSimplex(cand, r.Float64()) // arbitrary feasible point (sum <= 1)
			if mat.SquaredDist(cand, x) < dProj-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroupSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    GroupSpec
		n       int
		wantErr bool
	}{
		{"valid", GroupSpec{Groups: [][]int{{0, 1}, {2}}, Budgets: []float64{1, 2}}, 3, false},
		{"empty", GroupSpec{}, 5, false},
		{"length mismatch", GroupSpec{Groups: [][]int{{0}}, Budgets: nil}, 1, true},
		{"negative budget", GroupSpec{Groups: [][]int{{0}}, Budgets: []float64{-1}}, 1, true},
		{"index out of range", GroupSpec{Groups: [][]int{{5}}, Budgets: []float64{1}}, 3, true},
		{"duplicate index", GroupSpec{Groups: [][]int{{0}, {0}}, Budgets: []float64{1, 1}}, 2, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(tc.n)
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestGroupSpecProjectFactorizes(t *testing.T) {
	spec := GroupSpec{Groups: [][]int{{0, 2}, {1}}, Budgets: []float64{1, 0.5}}
	x := mat.Vector{2, 2, 2, -3}
	project(&spec, x)
	// Group {0,2}: project (2,2) onto budget 1 -> (0.5, 0.5).
	// Group {1}: project (2) onto budget 0.5 -> 0.5.
	// Index 3 ungrouped: clamp to 0.
	want := mat.Vector{0.5, 0.5, 0.5, 0}
	if !x.Equal(want, 1e-12) {
		t.Errorf("got %v, want %v", x, want)
	}
	if !feasible(&spec, x, 1e-12) {
		t.Error("projected point should be feasible")
	}
}

func TestGroupSpecFeasible(t *testing.T) {
	spec := GroupSpec{Groups: [][]int{{0, 1}}, Budgets: []float64{1}}
	if feasible(&spec, mat.Vector{0.6, 0.6}, 1e-9) {
		t.Error("over-budget point reported feasible")
	}
	if feasible(&spec, mat.Vector{-0.1, 0}, 1e-9) {
		t.Error("negative point reported feasible")
	}
	if !feasible(&spec, mat.Vector{0.4, 0.6}, 1e-9) {
		t.Error("boundary point should be feasible")
	}
}

// feasible reports whether x satisfies s's constraints within tol.
func feasible(s *GroupSpec, x mat.Vector, tol float64) bool {
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for g, idx := range s.Groups {
		var sum float64
		for _, i := range idx {
			sum += x[i]
		}
		if sum > s.Budgets[g]+tol {
			return false
		}
	}
	return true
}

// project projects x in place onto the feasible set described by s.
// Because the groups are disjoint, the projection factorizes exactly.
func project(s *GroupSpec, x mat.Vector) {
	pr := projector{whole: -1}
	pr.grow(len(x))
	pr.groups(s, x)
	ProjectNonneg(x) // the uncovered indices: a projected group has no negative entry
}
