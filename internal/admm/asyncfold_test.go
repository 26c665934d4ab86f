package admm

import (
	"fmt"
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
	dual, contributors := f.Fold(entries)
	if contributors != users {
		t.Fatalf("contributors = %d, want %d", contributors, users)
	}
	if want := rho * mat.Dist2(wantZ(xs, users, rho), mat.Vector{0.1, -0.3}); dual != want {
		t.Errorf("dual = %g, want ρ‖Δz‖ = %g", dual, want)
	}

	z := wantZ(xs, users, rho)
	if !f.Z.Equal(z, 0) {
		t.Errorf("z = %v, want %v", f.Z, z)
	}
	var primalSq float64
	for i, x := range xs {
		du := mat.SubVec(x, z)
		primalSq += du.SquaredNorm()
		if !f.Us[i].Equal(du, 0) {
			t.Errorf("u_%d = %v, want %v", i, f.Us[i], du)
		}
	}
	if got := f.Primal(); math.Abs(got-math.Sqrt(primalSq)) > 1e-15 {
		t.Errorf("primal = %g, want %g", got, math.Sqrt(primalSq))
	}
	if f.Epoch() != 1 || f.Standing() != users {
		t.Errorf("epoch %d standing %d after one full fold", f.Epoch(), f.Standing())
	}
}

// wantZ is the synchronous z-update over xs with zero duals.
func wantZ(xs []mat.Vector, users int, rho float64) mat.Vector {
	sum := mat.NewVector(len(xs[0]))
	for _, x := range xs {
		sum.Add(x)
	}
	return SquaredNormZ(sum, users, rho)
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

// refFold is Fold as it was when every step made its own vector and every
// fold re-summed the standing set (the sum, SquaredNormZ's clone, the damped
// step's clone, two SubVecs), kept as the reference the running-sum Fold is
// held to. It runs on its own copy of the fold state.
type refFold struct {
	z      mat.Vector
	us, xs []mat.Vector
	rho    float64
	weight StaleWeight
}

func newRefFold(w0 mat.Vector, users int, rho float64, weight StaleWeight) *refFold {
	f := &refFold{z: w0.Clone(), us: make([]mat.Vector, users),
		xs: make([]mat.Vector, users), rho: rho, weight: weight}
	for t := range f.us {
		f.us[t] = mat.NewVector(len(w0))
	}
	return f
}

func (f *refFold) fold(fresh []FoldEntry) (dual float64, standing int) {
	maxStale := 0.0
	for _, e := range fresh {
		f.xs[e.User] = e.X
		if e.Stale > maxStale {
			maxStale = e.Stale
		}
	}
	sum := mat.NewVector(len(f.z))
	for t := range f.xs {
		if f.xs[t] != nil {
			sum.Add(f.xs[t])
			sum.Add(f.us[t])
			standing++
		}
	}
	zPrev := f.z
	if standing > 0 {
		zHat := SquaredNormZ(sum, standing, f.rho)
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
	return f.rho * mat.Dist2(f.z, zPrev), standing
}

func (f *refFold) primal() float64 {
	var primalSq float64
	for t := range f.xs {
		if f.xs[t] != nil {
			primalSq += mat.SquaredDist(f.xs[t], f.z)
		}
	}
	return math.Sqrt(primalSq)
}

func (f *refFold) drop(t int) { f.xs[t], f.us[t] = nil, mat.NewVector(len(f.z)) }

func (f *refFold) restart(w0 mat.Vector) {
	f.z = w0.Clone()
	clear(f.xs)
}

// syncFrom copies the fold's z and duals into the reference, so the next
// fold of both starts from the same bits.
func (f *refFold) syncFrom(a *AsyncFold) {
	f.z = a.Z.Clone()
	for t := range f.us {
		f.us[t] = a.Us[t].Clone()
	}
}

// normInf returns max_i |v_i|.
func normInf(v mat.Vector) float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// near reports whether got is within tol of want relative to want's largest
// entry.
func near(got, want mat.Vector, tol float64) bool {
	scale := normInf(want)
	for j := range want {
		if math.Abs(got[j]-want[j]) > tol*scale {
			return false
		}
	}
	return true
}

// foldDiff compares the fold with the reference after the same fold: bit for
// bit when exact, else z and every dual within tol relative and the dual
// residual within tol of ρ‖z‖. It returns what differs, or "".
func foldDiff(f *AsyncFold, ref *refFold, dual, wantDual float64, exact bool, tol float64) string {
	if exact {
		tol = 0
	}
	if math.Abs(dual-wantDual) > tol*ref.rho*ref.z.Norm2() {
		return fmt.Sprintf("dual residual %x, reference %x", dual, wantDual)
	}
	if !near(f.Z, ref.z, tol) {
		return "z"
	}
	for u := range ref.us {
		if !near(f.Us[u], ref.us[u], tol) {
			return fmt.Sprintf("dual %d", u)
		}
	}
	return ""
}

// TestAsyncFoldBitsAndAllocs drives the fold and the reference through one
// seeded arrival schedule — single arrivals, barriers of two, seeded
// standing solutions, a drop and a restart, stale and fresh — from the same
// state before every fold. The fold right after construction, a Seed, a Drop
// or a Restart re-sums and must equal the reference bit for bit; the others
// run on the maintained sum and match z and every dual to 1e-13 relative;
// Primal equals the reference's primal over the same state bit for bit. Then
// it pins that Fold and Restart allocate nothing.
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
			ref := newRefFold(w0, users, 0.7, weight)
			seed := func(u int) {
				x := vec()
				f.Seed(u, x)
				ref.xs[u] = x
			}
			seed(3)
			exact := true // construction and the seed
			for k := 0; k < folds; k++ {
				switch k {
				case 20:
					f.Drop(5)
					ref.drop(5)
					exact = true
				case 33:
					seed(6)
					exact = true
				case 45: // a new CCCP round that carries no solution over
					w := vec()
					f.Restart(w)
					ref.restart(w)
					exact = true
				}
				fresh := []FoldEntry{{User: g.Intn(users), X: vec(), Stale: float64(g.Intn(6)) / 2}}
				if k%7 == 0 { // a barrier of two
					fresh = append(fresh, FoldEntry{User: (fresh[0].User + 1) % users, X: vec()})
				}
				ref.syncFrom(f)
				dual, n := f.Fold(fresh)
				wantDual, wantN := ref.fold(fresh)
				if n != wantN || n != f.Standing() {
					t.Fatalf("fold %d: standing %d (Standing() %d), reference %d", k, n, f.Standing(), wantN)
				}
				if d := foldDiff(f, ref, dual, wantDual, exact, 1e-13); d != "" {
					t.Fatalf("fold %d (exact %v): %s diverged from the reference", k, exact, d)
				}
				exact = false
				ref.syncFrom(f)
				if got, want := f.Primal(), ref.primal(); got != want {
					t.Fatalf("fold %d: primal %x, reference %x", k, got, want)
				}
			}
			if race.Enabled {
				return // the race detector allocates
			}
			fresh := []FoldEntry{{User: 1, X: vec(), Stale: 1}}
			if got := testing.AllocsPerRun(20, func() { f.Fold(fresh) }); got != 0 {
				t.Errorf("Fold: %v allocs per arrival, want 0", got)
			}
			if got := testing.AllocsPerRun(20, func() { f.Restart(w0) }); got != 0 {
				t.Errorf("Restart: %v allocs, want 0", got)
			}
		})
	}
}

// TestAsyncFoldDriftBounded runs the maintained sum for 20 000 single
// arrivals at fleet width, with no re-sum after the first, against the
// reference that re-sums every time: z may drift from it only by rounding,
// 1e-13 relative, after every fold, and every dual likewise.
func TestAsyncFoldDriftBounded(t *testing.T) {
	const users, dim = 32, 562
	folds := 20000
	if race.Enabled {
		folds = 2000 // one goroutine: the race detector would only add 30 s
	}
	for name, weight := range map[string]StaleWeight{"undamped": nil, "djam": DJAMWeight(3)} {
		t.Run(name, func(t *testing.T) {
			g := rng.New(11)
			pool := make([]mat.Vector, 2*users)
			for i := range pool {
				pool[i] = g.NormVector(dim)
			}
			w0 := g.NormVector(dim)
			f, err := NewAsyncFold(w0, users, 1, weight)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefFold(w0, users, 1, weight)
			for u := 0; u < users; u++ {
				f.Seed(u, pool[u])
				ref.xs[u] = pool[u]
			}
			worst := 0.0
			for k := 0; k < folds; k++ {
				fresh := []FoldEntry{{User: g.Intn(users), X: pool[g.Intn(len(pool))], Stale: float64(g.Intn(4))}}
				dual, _ := f.Fold(fresh)
				wantDual, _ := ref.fold(fresh)
				const tol = 1e-13
				if math.Abs(dual-wantDual) > tol*ref.z.Norm2() || !near(f.Z, ref.z, tol) {
					t.Fatalf("fold %d: z drifted past %g relative", k, tol)
				}
				if k%1000 == 999 { // the duals now and then: O(T·dim)
					for u := range ref.us {
						if !near(f.Us[u], ref.us[u], tol) {
							t.Fatalf("fold %d: dual %d drifted past %g relative", k, u, tol)
						}
					}
				}
				zd := mat.SubVec(f.Z, ref.z)
				worst = math.Max(worst, normInf(zd)/normInf(ref.z))
			}
			t.Logf("worst z drift over %d folds: %.2g relative", folds, worst)
		})
	}
}

// TestAsyncFoldRestartMatchesFresh: a fold restarted for a new CCCP round —
// after folds, with a dropped slot — is the fold a fresh NewAsyncFold would
// be, given the same carried duals and seeds: every later fold matches bit
// for bit.
func TestAsyncFoldRestartMatchesFresh(t *testing.T) {
	const users, dim = 6, 29
	for name, weight := range map[string]StaleWeight{"undamped": nil, "djam": DJAMWeight(2)} {
		t.Run(name, func(t *testing.T) {
			g := rng.New(8)
			vec := func() mat.Vector { return g.NormVector(dim) }
			a, err := NewAsyncFold(vec(), users, 0.9, weight)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 25; k++ {
				a.Fold([]FoldEntry{{User: g.Intn(users), X: vec(), Stale: float64(g.Intn(3))}})
			}
			a.Drop(4)

			w0 := vec()
			a.Restart(w0)
			b, err := NewAsyncFold(w0, users, 0.9, weight)
			if err != nil {
				t.Fatal(err)
			}
			for u := range b.Us {
				b.Us[u].CopyFrom(a.Us[u]) // the duals the round carries
			}
			if a.Standing() != 0 || a.Epoch() != 0 {
				t.Fatalf("restarted fold: standing %d epoch %d", a.Standing(), a.Epoch())
			}
			for _, u := range []int{0, 2, 5} {
				x := vec()
				a.Seed(u, x)
				b.Seed(u, x)
			}
			for k := 0; k < 30; k++ {
				fresh := []FoldEntry{{User: g.Intn(users), X: vec(), Stale: float64(g.Intn(3))}}
				if fresh[0].User == 4 {
					fresh[0].User = 1 // the dropped device never returns
				}
				da, na := a.Fold(fresh)
				db, nb := b.Fold(fresh)
				if da != db || na != nb || a.Epoch() != b.Epoch() || a.Primal() != b.Primal() {
					t.Fatalf("fold %d: restarted (%x, %d, epoch %d) vs fresh (%x, %d, epoch %d)",
						k, da, na, a.Epoch(), db, nb, b.Epoch())
				}
				if !a.Z.Equal(b.Z, 0) {
					t.Fatalf("fold %d: z differs", k)
				}
				for u := range a.Us {
					if !a.Us[u].Equal(b.Us[u], 0) {
						t.Fatalf("fold %d: dual %d differs", k, u)
					}
				}
			}
		})
	}
}

// BenchmarkAsyncFold is one arrival folded into a seeded fleet of T devices
// at dim 562 (the wire-async probe's shape, DJAM-weighted): with the running
// sum its cost is O(dim) whatever T.
func BenchmarkAsyncFold(b *testing.B) {
	const dim = 562
	for _, users := range []int{32, 512, 2048} {
		b.Run(fmt.Sprintf("T=%d", users), func(b *testing.B) {
			g := rng.New(3)
			pool := make([]mat.Vector, 64)
			for i := range pool {
				pool[i] = g.NormVector(dim)
			}
			f, err := NewAsyncFold(pool[0], users, 1, DJAMWeight(3))
			if err != nil {
				b.Fatal(err)
			}
			for u := 0; u < users; u++ {
				f.Seed(u, pool[u%len(pool)])
			}
			fresh := make([]FoldEntry, 1)
			f.Fold(fresh[:0]) // the re-sum after the seeds
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh[0] = FoldEntry{User: (i * 7) % users, X: pool[i%len(pool)], Stale: 1}
				f.Fold(fresh)
			}
		})
	}
}
