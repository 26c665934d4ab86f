package admm

import (
	"math"
	"testing"

	"plos/internal/mat"
	"plos/internal/race"
	"plos/internal/rng"
)

func TestDJAMWeight(t *testing.T) {
	w := DJAMWeight(3)
	cases := []struct{ s, want float64 }{
		{0, 1}, {1, 0.5}, {2, 1.0 / 3}, {3, 0.25}, {10, 0.25}, {-1, 1},
	}
	for _, c := range cases {
		if got := w(c.s); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("γ(%g) = %g, want %g", c.s, got, c.want)
		}
	}
	if got := DJAMWeight(-5)(100); got != 1 {
		t.Errorf("negative maxStale should clamp to undamped, got γ = %g", got)
	}
}

func TestAsyncFoldValidation(t *testing.T) {
	if _, err := NewAsyncFold(nil, 3, 1, nil); err == nil {
		t.Error("empty w0 should error")
	}
	if _, err := NewAsyncFold(mat.Vector{1}, 0, 1, nil); err == nil {
		t.Error("zero users should error")
	}
	if _, err := NewAsyncFold(mat.Vector{1}, 3, 0, nil); err == nil {
		t.Error("non-positive rho should error")
	}
}

// TestAsyncFoldFullBarrierMatchesSyncStep: folding every device at once
// with no staleness weight must reproduce the synchronous z- and u-update
// exactly (z = SquaredNormZ over all x_t + u_t, then u_t += x_t − z).
func TestAsyncFoldFullBarrierMatchesSyncStep(t *testing.T) {
	const users, rho = 3, 2.0
	xs := []mat.Vector{{1, 2}, {3, -1}, {-2, 0.5}}
	f, err := NewAsyncFold(mat.Vector{0.1, -0.3}, users, rho, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]FoldEntry, users)
	for i, x := range xs {
		entries[i] = FoldEntry{User: i, X: x}
	}
	res, contributors := f.Fold(entries)
	if contributors != users {
		t.Fatalf("contributors = %d, want %d", contributors, users)
	}

	sum := mat.NewVector(2)
	for _, x := range xs {
		sum.Add(x) // duals start at zero
	}
	wantZ := SquaredNormZ(sum, users, rho)
	if !f.Z.Equal(wantZ, 0) {
		t.Errorf("z = %v, want %v", f.Z, wantZ)
	}
	var primalSq float64
	for i, x := range xs {
		du := mat.SubVec(x, wantZ)
		primalSq += du.SquaredNorm()
		if !f.Us[i].Equal(du, 0) {
			t.Errorf("u_%d = %v, want %v", i, f.Us[i], du)
		}
	}
	if math.Abs(res.Primal-math.Sqrt(primalSq)) > 1e-15 {
		t.Errorf("primal = %g, want %g", res.Primal, math.Sqrt(primalSq))
	}
	if f.Epoch() != 1 || f.Standing() != users {
		t.Errorf("epoch %d standing %d after one full fold", f.Epoch(), f.Standing())
	}
}

// TestAsyncFoldDampedStep: with a staleness weight the consensus moves by
// z + γ(ẑ − z) and fresher arrivals move it further.
func TestAsyncFoldDampedStep(t *testing.T) {
	step := func(stale float64) mat.Vector {
		f, err := NewAsyncFold(mat.Vector{1, 1}, 2, 1, DJAMWeight(4))
		if err != nil {
			t.Fatal(err)
		}
		f.Fold([]FoldEntry{{User: 0, X: mat.Vector{5, -5}, Stale: stale}})
		return f.Z
	}
	undamped, err := NewAsyncFold(mat.Vector{1, 1}, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	undamped.Fold([]FoldEntry{{User: 0, X: mat.Vector{5, -5}}})

	z0 := mat.Vector{1, 1}
	zFresh, zStale := step(0), step(3)
	if !zFresh.Equal(undamped.Z, 1e-15) {
		t.Errorf("γ(0) = 1 fold should match the undamped step: %v vs %v", zFresh, undamped.Z)
	}
	// A stale arrival must land strictly between the old consensus and
	// the undamped target, closer to the old consensus.
	if mat.Dist2(zStale, z0) >= mat.Dist2(zFresh, z0) {
		t.Errorf("stale fold moved at least as far as fresh: %v vs %v from %v", zStale, zFresh, z0)
	}
	want := z0.Clone()
	want.AddScaled(1.0/4, mat.SubVec(undamped.Z, z0)) // γ(3) = 1/(1+3)
	if !zStale.Equal(want, 1e-12) {
		t.Errorf("damped z = %v, want %v", zStale, want)
	}
}

func TestAsyncFoldSeedAndDrop(t *testing.T) {
	f, err := NewAsyncFold(mat.Vector{0, 0}, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.Seed(1, mat.Vector{2, 2})
	if f.Standing() != 1 {
		t.Fatalf("standing after seed = %d", f.Standing())
	}
	if f.Epoch() != 0 {
		t.Errorf("Seed must not advance the epoch, got %d", f.Epoch())
	}
	// A fold of device 0 also averages in device 1's seeded solution.
	_, contributors := f.Fold([]FoldEntry{{User: 0, X: mat.Vector{1, 1}}})
	if contributors != 2 {
		t.Errorf("contributors = %d, want seeded + fresh = 2", contributors)
	}
	f.Drop(1)
	if f.Standing() != 1 {
		t.Errorf("standing after drop = %d", f.Standing())
	}
	if f.Us[1].SquaredNorm() != 0 {
		t.Errorf("drop should clear the dual, got %v", f.Us[1])
	}
	_, contributors = f.Fold([]FoldEntry{{User: 0, X: mat.Vector{1, 1}}})
	if contributors != 1 {
		t.Errorf("dropped device still contributing: %d", contributors)
	}
}

// refFold is Fold as it was when every step made its own vector (the sum,
// SquaredNormZ's clone, the damped step's clone, two SubVecs), kept as the
// reference the scratch-owning Fold is held to. It runs on its own copy of
// the fold state.
type refFold struct {
	z      mat.Vector
	us, xs []mat.Vector
	rho    float64
	weight StaleWeight
}

func (f *refFold) fold(fresh []FoldEntry) (Residuals, int) {
	maxStale := 0.0
	for _, e := range fresh {
		f.xs[e.User] = e.X
		if e.Stale > maxStale {
			maxStale = e.Stale
		}
	}
	sum := mat.NewVector(len(f.z))
	contributors := 0
	for t := range f.xs {
		if f.xs[t] != nil {
			sum.Add(f.xs[t])
			sum.Add(f.us[t])
			contributors++
		}
	}
	zPrev := f.z
	if contributors > 0 {
		zHat := SquaredNormZ(sum, contributors, f.rho)
		if f.weight == nil {
			f.z = zHat
		} else {
			z := zPrev.Clone()
			z.AddScaled(f.weight(maxStale), mat.SubVec(zHat, zPrev))
			f.z = z
		}
	}
	for _, e := range fresh {
		f.us[e.User].Add(mat.SubVec(f.xs[e.User], f.z))
	}
	var primalSq float64
	for t := range f.xs {
		if f.xs[t] != nil {
			primalSq += mat.SquaredDist(f.xs[t], f.z)
		}
	}
	return Residuals{Primal: math.Sqrt(primalSq), Dual: f.rho * mat.Dist2(f.z, zPrev)}, contributors
}

// TestAsyncFoldBitsAndAllocs drives the fold and the reference through
// one seeded arrival schedule — single arrivals, barriers of several,
// seeded standing solutions, a drop, stale and fresh — and requires z, every
// dual and both residuals to agree bit for bit after every fold, damped and
// undamped; then pins that a fold allocates nothing.
func TestAsyncFoldBitsAndAllocs(t *testing.T) {
	const users, dim, folds = 8, 37, 60
	for name, weight := range map[string]StaleWeight{"undamped": nil, "djam": DJAMWeight(3)} {
		t.Run(name, func(t *testing.T) {
			g := rng.New(5)
			vec := func() mat.Vector { return g.NormVector(dim) }
			w0 := vec()
			f, err := NewAsyncFold(w0, users, 0.7, weight)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refFold{z: w0.Clone(), us: make([]mat.Vector, users),
				xs: make([]mat.Vector, users), rho: 0.7, weight: weight}
			for u := range ref.us {
				ref.us[u] = mat.NewVector(dim)
			}
			seeded := vec()
			f.Seed(3, seeded)
			ref.xs[3] = seeded
			for k := 0; k < folds; k++ {
				if k == 20 {
					f.Drop(5)
					ref.xs[5], ref.us[5] = nil, mat.NewVector(dim)
				}
				fresh := []FoldEntry{{User: g.Intn(users), X: vec(), Stale: float64(g.Intn(6)) / 2}}
				if k%7 == 0 { // a barrier of two
					fresh = append(fresh, FoldEntry{User: (fresh[0].User + 1) % users, X: vec()})
				}
				res, n := f.Fold(fresh)
				wantRes, wantN := ref.fold(fresh)
				if res != wantRes || n != wantN {
					t.Fatalf("fold %d: residuals %+v over %d, reference %+v over %d", k, res, n, wantRes, wantN)
				}
				for j := range ref.z {
					if f.Z[j] != ref.z[j] {
						t.Fatalf("fold %d: z[%d] = %x, reference %x", k, j, f.Z[j], ref.z[j])
					}
				}
				for u := range ref.us {
					for j := range ref.us[u] {
						if f.Us[u][j] != ref.us[u][j] {
							t.Fatalf("fold %d: dual %d slot %d diverged from the reference", k, u, j)
						}
					}
				}
			}
			if race.Enabled {
				return // the race detector allocates
			}
			fresh := []FoldEntry{{User: 1, X: vec(), Stale: 1}}
			if got := testing.AllocsPerRun(20, func() { f.Fold(fresh) }); got != 0 {
				t.Errorf("Fold: %v allocs per arrival, want 0", got)
			}
		})
	}
}
