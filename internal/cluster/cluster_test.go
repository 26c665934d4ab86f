package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"plos/internal/mat"
	"plos/internal/rng"
)

// twoBlobs returns well-separated 2-d clusters and their true assignment.
func twoBlobs(r *rand.Rand, per int, sep float64) (*mat.Matrix, []int) {
	x := mat.NewMatrix(2*per, 2)
	truth := make([]int, 2*per)
	for i := 0; i < per; i++ {
		x.Set(i, 0, sep+r.NormFloat64())
		x.Set(i, 1, r.NormFloat64())
		truth[i] = 0
		x.Set(per+i, 0, -sep+r.NormFloat64())
		x.Set(per+i, 1, r.NormFloat64())
		truth[per+i] = 1
	}
	return x, truth
}

func agreement(a, b []int) float64 {
	// Best-of-two-permutations agreement for binary clusterings.
	same, flip := 0, 0
	for i := range a {
		if a[i] == b[i] {
			same++
		} else {
			flip++
		}
	}
	if flip > same {
		same = flip
	}
	return float64(same) / float64(len(a))
}

func TestKMeansTwoBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x, truth := twoBlobs(r, 100, 10)
	res, err := KMeans(x, 2, rng.New(1), KMeansParams{})
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	if !res.Converged {
		t.Error("should converge on separated blobs")
	}
	if acc := agreement(res.Assignment, truth); acc < 0.99 {
		t.Errorf("agreement = %v", acc)
	}
	if len(res.Centers) != 2 {
		t.Fatalf("centers = %d", len(res.Centers))
	}
	// Centers should be near (±10, 0).
	c0 := res.Centers[0]
	if math.Abs(math.Abs(c0[0])-10) > 1 {
		t.Errorf("center = %v", c0)
	}
}

func TestKMeansErrors(t *testing.T) {
	x := mat.FromRows([][]float64{{1}, {2}})
	if _, err := KMeans(x, 0, rng.New(1), KMeansParams{}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := KMeans(x, 3, rng.New(1), KMeansParams{}); err == nil {
		t.Error("k>n should error")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	x, _ := twoBlobs(r, 30, 4)
	a, err := KMeans(x, 2, rng.New(9), KMeansParams{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(x, 2, rng.New(9), KMeansParams{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed should give identical clustering")
		}
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	// All points identical: must not loop forever or panic; inertia 0.
	x := mat.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	res, err := KMeans(x, 2, rng.New(3), KMeansParams{})
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("inertia = %v", res.Inertia)
	}
}

// Property: k-means inertia never exceeds the inertia of the trivial
// one-cluster solution; assignments are in range.
func TestPropertyKMeansInertia(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 4
		k := int(kRaw%3) + 1
		if k > n {
			k = n
		}
		x := mat.NewMatrix(n, 2)
		for i := range x.Data {
			x.Data[i] = r.NormFloat64() * 5
		}
		res, err := KMeans(x, k, rng.New(seed), KMeansParams{})
		if err != nil {
			return false
		}
		for _, a := range res.Assignment {
			if a < 0 || a >= k {
				return false
			}
		}
		// One-cluster inertia (total variance around the mean).
		mean := mat.NewVector(2)
		for i := 0; i < n; i++ {
			mean.Add(x.Row(i))
		}
		mean.Scale(1 / float64(n))
		var oneCluster float64
		for i := 0; i < n; i++ {
			oneCluster += mat.SquaredDist(x.Row(i), mean)
		}
		return res.Inertia <= oneCluster+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSpectralTwoBlocks(t *testing.T) {
	// Block-diagonal similarity: two communities of 4 nodes.
	n := 8
	sim := mat.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if (i < 4) == (j < 4) {
				sim.Set(i, j, 1)
			} else {
				sim.Set(i, j, 0.01)
			}
		}
	}
	assign, err := Spectral(sim, 2, rng.New(5))
	if err != nil {
		t.Fatalf("Spectral: %v", err)
	}
	truth := []int{0, 0, 0, 0, 1, 1, 1, 1}
	if acc := agreement(assign, truth); acc != 1 {
		t.Errorf("agreement = %v, assign = %v", acc, assign)
	}
}

func TestSpectralErrors(t *testing.T) {
	if _, err := Spectral(mat.NewMatrix(2, 3), 2, rng.New(1)); err == nil {
		t.Error("non-square should error")
	}
	asym := mat.FromRows([][]float64{{0, 1}, {0.5, 0}})
	if _, err := Spectral(asym, 2, rng.New(1)); err == nil {
		t.Error("asymmetric should error")
	}
	neg := mat.FromRows([][]float64{{0, -1}, {-1, 0}})
	if _, err := Spectral(neg, 2, rng.New(1)); err == nil {
		t.Error("negative similarity should error")
	}
	small := mat.FromRows([][]float64{{0}})
	if _, err := Spectral(small, 2, rng.New(1)); err == nil {
		t.Error("k>n should error")
	}
}

func TestSpectralIsolatedNode(t *testing.T) {
	// A node with zero similarity to everything must not produce NaNs.
	sim := mat.NewMatrix(5, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				sim.Set(i, j, 1)
			}
		}
	}
	assign, err := Spectral(sim, 2, rng.New(6))
	if err != nil {
		t.Fatalf("Spectral: %v", err)
	}
	if len(assign) != 5 {
		t.Fatalf("assign = %v", assign)
	}
}
