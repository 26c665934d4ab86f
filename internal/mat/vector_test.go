package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorBasicOps(t *testing.T) {
	tests := []struct {
		name string
		op   func() float64
		want float64
	}{
		{"Dot", func() float64 { return Vector{1, 2, 3}.Dot(Vector{4, 5, 6}) }, 32},
		{"Norm2", func() float64 { return Vector{3, 4}.Norm2() }, 5},
		{"SquaredNorm", func() float64 { return Vector{3, 4}.SquaredNorm() }, 25},
		{"Sum", func() float64 { return Vector{1, 2, 3, 4}.Sum() }, 10},
		{"Mean", func() float64 { return Vector{1, 2, 3, 4}.Mean() }, 2.5},
		{"MeanEmpty", func() float64 { return Vector{}.Mean() }, 0},
		{"Dist2", func() float64 { return Dist2(Vector{0, 0}, Vector{3, 4}) }, 5},
		{"SquaredDist", func() float64 { return SquaredDist(Vector{1, 1}, Vector{4, 5}) }, 25},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.op(); !almostEq(got, tc.want, 1e-12) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestVectorInPlaceOps(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Add(Vector{1, 1, 1})
	if !v.Equal(Vector{2, 3, 4}, 0) {
		t.Fatalf("Add: got %v", v)
	}
	v.Sub(Vector{2, 2, 2})
	if !v.Equal(Vector{0, 1, 2}, 0) {
		t.Fatalf("Sub: got %v", v)
	}
	v.AddScaled(2, Vector{1, 1, 1})
	if !v.Equal(Vector{2, 3, 4}, 0) {
		t.Fatalf("AddScaled: got %v", v)
	}
	v.Scale(0.5)
	if !v.Equal(Vector{1, 1.5, 2}, 0) {
		t.Fatalf("Scale: got %v", v)
	}
	v.Zero()
	if !v.Equal(Vector{0, 0, 0}, 0) {
		t.Fatalf("Zero: got %v", v)
	}
}

func TestVectorCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestVectorMaxMin(t *testing.T) {
	v := Vector{3, -1, 7, 2}
	if got, idx := v.Max(); got != 7 || idx != 2 {
		t.Errorf("Max = (%v,%d), want (7,2)", got, idx)
	}
	if got, idx := v.Min(); got != -1 || idx != 1 {
		t.Errorf("Min = (%v,%d), want (-1,1)", got, idx)
	}
	if _, idx := (Vector{}).Max(); idx != -1 {
		t.Error("Max of empty should have index -1")
	}
	if _, idx := (Vector{}).Min(); idx != -1 {
		t.Error("Min of empty should have index -1")
	}
}

func TestVectorDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths should panic")
		}
	}()
	_ = Vector{1, 2}.Dot(Vector{1})
}

func TestAllocatingHelpers(t *testing.T) {
	x, y := Vector{1, 2}, Vector{3, 4}
	if got := Axpy(2, x, y); !got.Equal(Vector{5, 8}, 0) {
		t.Errorf("Axpy = %v", got)
	}
	if got := SubVec(y, x); !got.Equal(Vector{2, 2}, 0) {
		t.Errorf("SubVec = %v", got)
	}
	// SubVecTo into one of its operands.
	d := y.Clone()
	if SubVecTo(d, d, x); !d.Equal(Vector{2, 2}, 0) {
		t.Errorf("SubVecTo = %v", d)
	}
	if got := AddVec(y, x); !got.Equal(Vector{4, 6}, 0) {
		t.Errorf("AddVec = %v", got)
	}
	// Inputs must be untouched.
	if !x.Equal(Vector{1, 2}, 0) || !y.Equal(Vector{3, 4}, 0) {
		t.Error("allocating helpers mutated their inputs")
	}
}

func randVec(r *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = r.NormFloat64() * 10
	}
	return v
}

// Property: Cauchy-Schwarz |x·y| <= ||x|| ||y||.
func TestPropertyCauchySchwarz(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		x, y := randVec(r, n), randVec(r, n)
		return math.Abs(x.Dot(y)) <= x.Norm2()*y.Norm2()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: triangle inequality for Dist2.
func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		x, y, z := randVec(r, n), randVec(r, n), randVec(r, n)
		return Dist2(x, z) <= Dist2(x, y)+Dist2(y, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: AddScaled agrees with the allocating Axpy.
func TestPropertyAxpyConsistency(t *testing.T) {
	f := func(seed int64, nRaw uint8, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 100)
		n := int(nRaw%32) + 1
		r := rand.New(rand.NewSource(seed))
		x, y := randVec(r, n), randVec(r, n)
		want := Axpy(a, x, y)
		got := y.Clone()
		got.AddScaled(a, x)
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
