package svm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plos/internal/mat"
)

func separableData(r *rand.Rand, n int, gap float64) (*mat.Matrix, []float64) {
	x := mat.NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		x.Set(i, 0, sign*gap+r.NormFloat64())
		x.Set(i, 1, r.NormFloat64())
		y[i] = sign
	}
	return x, y
}

func TestTrainSeparable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x, y := separableData(r, 200, 5)
	m, info, err := Train(x, y, Params{C: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if !info.Converged {
		t.Errorf("did not converge: %+v", info)
	}
	correct := 0
	for i := 0; i < x.Rows; i++ {
		if m.Predict(x.Row(i)) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(x.Rows); acc < 0.99 {
		t.Errorf("training accuracy = %v", acc)
	}
	// The separating direction should be dominated by the first feature.
	if math.Abs(m.W[0]) < math.Abs(m.W[1]) {
		t.Errorf("W = %v: first coordinate should dominate", m.W)
	}
}

func TestTrainErrors(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 0}, {2, 0}})
	tests := []struct {
		name string
		x    *mat.Matrix
		y    []float64
		p    Params
		want error
	}{
		{"no data", mat.NewMatrix(0, 2), nil, Params{}, ErrNoData},
		{"shape mismatch", x, []float64{1}, Params{}, ErrShapeMismatch},
		{"single class", x, []float64{1, 1}, Params{}, ErrSingleClass},
		{"bad label", x, []float64{1, 0}, Params{}, ErrBadLabel},
		{"bad per-sample C", x, []float64{1, -1}, Params{PerSampleC: []float64{1}}, ErrShapeMismatch},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Train(tc.x, tc.y, tc.p)
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestTrainDeterministicInSeed(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x, y := separableData(r, 100, 2)
	m1, _, err := Train(x, y, Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Train(x, y, Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !m1.W.Equal(m2.W, 0) {
		t.Error("same seed should give identical models")
	}
}

func TestPredictTieBreaksPositive(t *testing.T) {
	m := &Model{W: mat.Vector{1, 0}}
	if got := m.Predict(mat.Vector{0, 5}); got != 1 {
		t.Errorf("Predict on the boundary = %v, want +1", got)
	}
}

func TestPredictAll(t *testing.T) {
	m := &Model{W: mat.Vector{1}}
	x := mat.FromRows([][]float64{{2}, {-3}, {0}})
	got := m.PredictAll(x)
	want := []float64{1, -1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PredictAll[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMarginAtLeastOneForSupportVectors(t *testing.T) {
	// On a cleanly separable set with generous C, all points should end up
	// with functional margin >= 1 - tol.
	r := rand.New(rand.NewSource(3))
	x, y := separableData(r, 100, 8)
	m, _, err := Train(x, y, Params{C: 10, Tol: 1e-6, MaxEpochs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		if marg := y[i] * m.Score(x.Row(i)); marg < 1-1e-3 {
			t.Fatalf("sample %d has margin %v < 1", i, marg)
		}
	}
}

func TestPerSampleCZeroIgnoresSamples(t *testing.T) {
	// Two wildly mislabeled points with C_i = 0 must not affect the model.
	x := mat.FromRows([][]float64{{5, 0}, {-5, 0}, {-5, 0.1}, {5, -0.1}})
	y := []float64{1, -1, 1, -1} // last two mislabeled
	cs := []float64{1, 1, 0, 0}
	m, _, err := Train(x, y, Params{PerSampleC: cs, Tol: 1e-8, MaxEpochs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(mat.Vector{5, 0}) != 1 || m.Predict(mat.Vector{-5, 0}) != -1 {
		t.Errorf("model influenced by zero-weight samples: W = %v", m.W)
	}
}

func TestAugmentBias(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	a := AugmentBias(x)
	if a.Cols != 3 || a.At(0, 2) != 1 || a.At(1, 2) != 1 {
		t.Errorf("AugmentBias =\n%v", a)
	}
	if a.At(1, 1) != 4 {
		t.Error("original entries must be preserved")
	}
	v := AugmentBiasVec(mat.Vector{7, 8})
	if !v.Equal(mat.Vector{7, 8, 1}, 0) {
		t.Errorf("AugmentBiasVec = %v", v)
	}
}

func TestBiasEnablesOffsetSeparation(t *testing.T) {
	// Classes separated by the line x0 = 3, impossible through the origin
	// in 1-d, trivial with an affine term.
	n := 40
	x := mat.NewMatrix(n, 1)
	y := make([]float64, n)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x.Set(i, 0, 4+r.Float64())
			y[i] = 1
		} else {
			x.Set(i, 0, 2-r.Float64())
			y[i] = -1
		}
	}
	aug := AugmentBias(x)
	m, _, err := Train(aug, y, Params{C: 10, MaxEpochs: 5000, Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if m.Predict(aug.Row(i)) != y[i] {
			t.Fatalf("affine model misclassifies sample %d", i)
		}
	}
}

// Property: weak duality — the dual objective the solver maximizes never
// exceeds the primal objective at the returned w. Equivalently, the primal
// objective at the trained model is no worse than at small perturbations
// (approximate primal optimality on random problems).
func TestPropertyPrimalLocalOptimality(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%30)*2 + 10
		x, y := separableData(r, n, 1.5)
		m, _, err := Train(x, y, Params{C: 1, Tol: 1e-7, MaxEpochs: 4000})
		if err != nil {
			return false
		}
		p := Params{C: 1}
		base := primalObjective(m, x, y, p)
		for trial := 0; trial < 10; trial++ {
			pert := &Model{W: m.W.Clone()}
			for i := range pert.W {
				pert.W[i] += r.NormFloat64() * 0.05
			}
			if primalObjective(pert, x, y, p) < base-1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: scaling every C_i by the same factor never decreases training
// accuracy on separable data (more emphasis on fitting).
func TestPropertyAccuracyReasonable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x, y := separableData(r, 60, 3)
		m, _, err := Train(x, y, Params{C: 5, MaxEpochs: 3000})
		if err != nil {
			return false
		}
		correct := 0
		for i := 0; i < x.Rows; i++ {
			if m.Predict(x.Row(i)) == y[i] {
				correct++
			}
		}
		return float64(correct)/float64(x.Rows) >= 0.95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// primalObjective evaluates ½||w||² + Σ C_i hinge_i of m (the dual solution
// must not exceed it).
func primalObjective(m *Model, x *mat.Matrix, y []float64, p Params) float64 {
	p = p.withDefaults()
	obj := 0.5 * m.W.SquaredNorm()
	for i := 0; i < x.Rows; i++ {
		ci := p.C
		if p.PerSampleC != nil {
			ci = p.PerSampleC[i]
		}
		if h := 1 - y[i]*m.Score(x.Row(i)); h > 0 {
			obj += ci * h
		}
	}
	return obj
}
