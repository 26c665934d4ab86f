package lsh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plos/internal/mat"
	"plos/internal/rng"
)

func TestNewHasherValidation(t *testing.T) {
	g := rng.New(1)
	if _, err := NewHasher(0, 7, g); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := NewHasher(3, 0, g); err == nil {
		t.Error("bits 0 should error")
	}
	if _, err := NewHasher(3, 31, g); err == nil {
		t.Error("bits 31 should error")
	}
	h, err := NewHasher(3, 7, g)
	if err != nil {
		t.Fatal(err)
	}
	if h.Buckets() != 128 {
		t.Errorf("Buckets = %d, want 128 (paper n=128)", h.Buckets())
	}
}

func TestHashRangeAndDeterminism(t *testing.T) {
	g := rng.New(2)
	h, err := NewHasher(4, 5, g)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		x := mat.Vector{r.NormFloat64(), r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		b := h.Hash(x)
		if b < 0 || b >= h.Buckets() {
			t.Fatalf("bucket %d out of range", b)
		}
		if h.Hash(x) != b {
			t.Fatal("Hash must be deterministic")
		}
	}
}

func TestNearbyPointsCollide(t *testing.T) {
	// LSH property: points at tiny angular distance collide far more often
	// than antipodal points.
	g := rng.New(4)
	r := rand.New(rand.NewSource(5))
	sameBucketNear, sameBucketFar := 0, 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		h, err := NewHasher(8, 4, g.SplitN("h", trial))
		if err != nil {
			t.Fatal(err)
		}
		x := make(mat.Vector, 8)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		near := x.Clone()
		near[0] += 0.01
		far := x.Clone()
		far.Scale(-1)
		if h.Hash(x) == h.Hash(near) {
			sameBucketNear++
		}
		if h.Hash(x) == h.Hash(far) {
			sameBucketFar++
		}
	}
	if sameBucketNear < trials*9/10 {
		t.Errorf("near collisions = %d/%d, want almost all", sameBucketNear, trials)
	}
	if sameBucketFar != 0 {
		t.Errorf("antipodal collisions = %d, want 0", sameBucketFar)
	}
}

func TestHistogramNormalized(t *testing.T) {
	g := rng.New(6)
	h, err := NewHasher(2, 3, g)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.FromRows([][]float64{{1, 0}, {0, 1}, {-1, -1}, {2, 2}})
	hist := h.Histogram(x)
	if len(hist) != 8 {
		t.Fatalf("len(hist) = %d", len(hist))
	}
	if math.Abs(hist.Sum()-1) > 1e-12 {
		t.Errorf("histogram sum = %v", hist.Sum())
	}
	empty := h.Histogram(mat.NewMatrix(0, 2))
	if empty.Sum() != 0 {
		t.Error("empty histogram should be all zeros")
	}
}

func TestJaccardKnown(t *testing.T) {
	tests := []struct {
		name string
		u, v mat.Vector
		want float64
	}{
		{"identical", mat.Vector{0.5, 0.5}, mat.Vector{0.5, 0.5}, 1},
		{"disjoint", mat.Vector{1, 0}, mat.Vector{0, 1}, 0},
		{"half", mat.Vector{1, 0}, mat.Vector{0.5, 0.5}, 1.0 / 3},
		{"both empty", mat.Vector{0, 0}, mat.Vector{0, 0}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Jaccard(tc.u, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Jaccard = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestJaccardErrors(t *testing.T) {
	if _, err := Jaccard(mat.Vector{1}, mat.Vector{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Jaccard(mat.Vector{-1}, mat.Vector{1}); err == nil {
		t.Error("negative entries should error")
	}
}

// Properties: Jaccard is symmetric, bounded in [0,1], and 1 on identical
// nonempty histograms.
func TestPropertyJaccard(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		r := rand.New(rand.NewSource(seed))
		u := make(mat.Vector, n)
		v := make(mat.Vector, n)
		for i := range u {
			u[i] = r.Float64()
			v[i] = r.Float64()
		}
		suv, err1 := Jaccard(u, v)
		svu, err2 := Jaccard(v, u)
		if err1 != nil || err2 != nil {
			return false
		}
		if suv != svu || suv < 0 || suv > 1 {
			return false
		}
		self, err := Jaccard(u, u)
		if err != nil {
			return false
		}
		return math.Abs(self-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSimilarityMatrix(t *testing.T) {
	g := rng.New(7)
	h, err := NewHasher(2, 7, g)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	mk := func(cx, cy float64) *mat.Matrix {
		m := mat.NewMatrix(60, 2)
		for i := 0; i < 60; i++ {
			m.Set(i, 0, cx+r.NormFloat64()*0.2)
			m.Set(i, 1, cy+r.NormFloat64()*0.2)
		}
		return m
	}
	// Users 0,1 share a region; user 2 is in the opposite quadrant.
	users := []*mat.Matrix{mk(3, 3), mk(3, 3), mk(-3, -3)}
	sim, err := SimilarityMatrix(users, h)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.IsSymmetric(1e-12) {
		t.Error("similarity matrix must be symmetric")
	}
	for i := 0; i < 3; i++ {
		if math.Abs(sim.At(i, i)-1) > 1e-12 {
			t.Errorf("diagonal (%d) = %v", i, sim.At(i, i))
		}
	}
	if sim.At(0, 1) <= sim.At(0, 2) {
		t.Errorf("similar users (%v) should beat dissimilar (%v)", sim.At(0, 1), sim.At(0, 2))
	}
}
