package rng

import (
	"math"
	"testing"
	"testing/quick"

	"plos/internal/mat"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed should give same sequence")
		}
	}
	if a.Seed() != 42 {
		t.Errorf("Seed() = %d", a.Seed())
	}
}

func TestSplitIndependentOfParentState(t *testing.T) {
	a := New(7)
	child1 := a.Split("x").Float64()
	// Consume parent state; split must not be affected.
	for i := 0; i < 50; i++ {
		a.Float64()
	}
	child2 := a.Split("x").Float64()
	if child1 != child2 {
		t.Error("Split should be a pure function of (seed, label)")
	}
}

// SplitNInto is SplitN in the child's own storage: same seed, same stream,
// whatever the child drew before.
func TestSplitNIntoMatchesSplitN(t *testing.T) {
	g := New(7)
	child := New(99)
	for i := 0; i < 3; i++ {
		for k := 0; k < 700; k++ { // past the source's 607-word state
			child.Norm()
		}
		g.SplitNInto(child, "u", i)
		want := g.SplitN("u", i)
		if child.Seed() != want.Seed() {
			t.Fatalf("index %d: seed %d, SplitN has %d", i, child.Seed(), want.Seed())
		}
		for k := 0; k < 700; k++ {
			if a, b := child.Norm(), want.Norm(); a != b {
				t.Fatalf("index %d draw %d: %v, SplitN stream has %v", i, k, a, b)
			}
			if a, b := child.Intn(1000), want.Intn(1000); a != b {
				t.Fatalf("index %d draw %d: Intn %d, SplitN stream has %d", i, k, a, b)
			}
		}
	}
}

func TestSplitDistinctLabels(t *testing.T) {
	g := New(7)
	if g.Split("a").Float64() == g.Split("b").Float64() {
		t.Error("different labels should give different streams")
	}
	if g.SplitN("u", 0).Float64() == g.SplitN("u", 1).Float64() {
		t.Error("different indices should give different streams")
	}
}

func TestGaussMoments(t *testing.T) {
	g := New(1)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := g.Gauss(3, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("variance = %v, want ~4", variance)
	}
}

func TestBoolProbability(t *testing.T) {
	g := New(2)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			count++
		}
	}
	p := float64(count) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("empirical p = %v, want ~0.3", p)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := New(3)
	idx := g.SampleWithoutReplacement(10, 5)
	if len(idx) != 5 {
		t.Fatalf("len = %d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 10 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("k > n should panic")
		}
	}()
	g.SampleWithoutReplacement(3, 4)
}

func TestUnitVector(t *testing.T) {
	g := New(4)
	for i := 0; i < 20; i++ {
		v := g.UnitVector(7)
		if math.Abs(v.Norm2()-1) > 1e-12 {
			t.Fatalf("||v|| = %v", v.Norm2())
		}
	}
}

func TestMVNMoments(t *testing.T) {
	mean := mat.Vector{1, -2}
	cov := mat.FromRows([][]float64{{4, 1}, {1, 2}})
	m, err := NewMVN(mean, cov)
	if err != nil {
		t.Fatalf("NewMVN: %v", err)
	}
	if m.Dim() != 2 {
		t.Errorf("Dim = %d", m.Dim())
	}
	g := New(5)
	const n = 100000
	sum := mat.NewVector(2)
	samples := make([]mat.Vector, n)
	for i := 0; i < n; i++ {
		s := m.Sample(g)
		samples[i] = s
		sum.Add(s)
	}
	sum.Scale(1.0 / n)
	if !sum.Equal(mean, 0.05) {
		t.Errorf("sample mean = %v, want ~%v", sum, mean)
	}
	// Empirical covariance.
	var c00, c01, c11 float64
	for _, s := range samples {
		d0, d1 := s[0]-sum[0], s[1]-sum[1]
		c00 += d0 * d0
		c01 += d0 * d1
		c11 += d1 * d1
	}
	c00, c01, c11 = c00/n, c01/n, c11/n
	if math.Abs(c00-4) > 0.15 || math.Abs(c01-1) > 0.15 || math.Abs(c11-2) > 0.15 {
		t.Errorf("cov = [[%v,%v],[.,%v]], want [[4,1],[1,2]]", c00, c01, c11)
	}
}

func TestMVNRejectsIndefinite(t *testing.T) {
	cov := mat.FromRows([][]float64{{1, 3}, {3, 1}})
	if _, err := NewMVN(mat.Vector{0, 0}, cov); err == nil {
		t.Error("expected error for indefinite covariance")
	}
}

func TestRotation2D(t *testing.T) {
	r := Rotation2D(math.Pi / 2)
	got := r.MulVec(mat.Vector{1, 0})
	if !got.Equal(mat.Vector{0, 1}, 1e-12) {
		t.Errorf("R(π/2)·e1 = %v", got)
	}
}

// Property: rotation preserves norms.
func TestPropertyRotationIsometry(t *testing.T) {
	f := func(theta, x, y float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) ||
			math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		theta = math.Mod(theta, 2*math.Pi)
		x, y = math.Mod(x, 1e6), math.Mod(y, 1e6)
		v := mat.Vector{x, y}
		rv := Rotation2D(theta).MulVec(v)
		return math.Abs(rv.Norm2()-v.Norm2()) <= 1e-9*(1+v.Norm2())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Perm always returns a valid permutation.
func TestPropertyPermValid(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, i := range p {
			if i < 0 || i >= n || seen[i] {
				return false
			}
			seen[i] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIntnNormShuffle(t *testing.T) {
	g := New(11)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := g.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn should hit every value, saw %d", len(seen))
	}
	var sum float64
	for i := 0; i < 10000; i++ {
		sum += g.Norm()
	}
	if math.Abs(sum/10000) > 0.05 {
		t.Errorf("Norm mean = %v", sum/10000)
	}
	xs := []int{1, 2, 3, 4, 5}
	orig := append([]int(nil), xs...)
	g.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	count := map[int]bool{}
	for _, v := range xs {
		count[v] = true
	}
	if len(count) != len(orig) {
		t.Error("Shuffle lost elements")
	}
}
