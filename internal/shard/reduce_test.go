package shard_test

import (
	"math"
	"testing"

	"plos/internal/mat"
	"plos/internal/race"
	"plos/internal/rng"
	"plos/internal/shard"
)

func randVecs(seed int64, n, dim int) []mat.Vector {
	g := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		v := mat.NewVector(dim)
		for j := range v {
			v[j] = g.Norm()
		}
		out[i] = v
	}
	return out
}

// One partition holding the whole population must reproduce
// federatedInit bit for bit — the K=1 leg of the bit-identity
// contract — on both the label-weighted path and the no-labels fallback.
func TestFoldInitSinglePartitionMatchesFederatedInit(t *testing.T) {
	ws := randVecs(3, 7, 5)
	for name, weights := range map[string][]float64{
		"weighted": {3, 0, 1, 0, 2, 5, 0},
		"fallback": {0, 0, 0, 0, 0, 0, 0},
	} {
		want := federatedInit(ws, weights)
		got := shard.FoldInit([]shard.InitPartial{shard.NewInitPartial(ws, weights, 5)}, len(ws))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: w0[%d] = %x, federatedInit has %x", name, j, got[j], want[j])
			}
		}
	}
}

// Fold of a single partial must return exactly that partial's bits (and a
// fresh vector, not an alias).
func TestFoldSinglePartialIsIdentity(t *testing.T) {
	p := randVecs(9, 1, 4)[0]
	p[2] = math.Copysign(0, -1) // −0 would become +0 under 0 + x folding
	got := shard.Fold([]mat.Vector{p})
	for j := range p {
		if math.Float64bits(got[j]) != math.Float64bits(p[j]) {
			t.Fatalf("Fold single: slot %d changed bits", j)
		}
	}
	got[0] = 999
	if p[0] == 999 {
		t.Fatal("Fold must clone, not alias, its single partial")
	}
}

// refSumXU and refApplyZ are the allocating forms the round engine ran
// before it owned its buffers, kept as the reference for the forms above.
func refSumXU(xs, us []mat.Vector, dim int) mat.Vector {
	sum := mat.NewVector(dim)
	for i, x := range xs {
		sum.Add(x)
		sum.Add(us[i])
	}
	return sum
}

func refApplyZ(xs, us []mat.Vector, z mat.Vector) float64 {
	var primalSq float64
	for i, x := range xs {
		du := mat.SubVec(x, z)
		primalSq += du.SquaredNorm()
		us[i].Add(du)
	}
	return primalSq
}

// SumXUTo into a dirty, reused vector and the scratch-free ApplyZ carry the
// bits of the allocating references, iteration after iteration, at the
// benchmark's fleet shape.
func TestIntoStorageBitsAndAllocs(t *testing.T) {
	const n, dim = 32, 562
	xs := randVecs(21, n, dim)
	us, refUs := randVecs(22, n, dim), randVecs(22, n, dim)
	sum := randVecs(23, 1, dim)[0] // dirty on purpose: SumXUTo overwrites
	for iter := 0; iter < 3; iter++ {
		shard.SumXUTo(sum, xs, us)
		want := refSumXU(xs, refUs, dim)
		for j := range want {
			if sum[j] != want[j] {
				t.Fatalf("iteration %d: SumXUTo slot %d: %x, reference %x", iter, j, sum[j], want[j])
			}
		}
		z := randVecs(int64(30+iter), 1, dim)[0]
		if got, want := shard.ApplyZ(xs, us, z), refApplyZ(xs, refUs, z); got != want {
			t.Fatalf("iteration %d: ApplyZ primal partial %x, reference %x", iter, got, want)
		}
		for i := range us {
			for j := range us[i] {
				if us[i][j] != refUs[i][j] {
					t.Fatalf("iteration %d: ApplyZ dual %d slot %d diverged from the reference", iter, i, j)
				}
			}
		}
	}
	if race.Enabled {
		return // the race detector allocates
	}
	z := randVecs(40, 1, dim)[0]
	if got := testing.AllocsPerRun(20, func() { shard.SumXUTo(sum, xs, us); shard.ApplyZ(xs, us, z) }); got != 0 {
		t.Errorf("SumXUTo + ApplyZ: %v allocs, want 0", got)
	}
}

// federatedInit is the pooled form of the starting w0 that FoldInit folds
// from partials: the label-weighted average of the labeled users' local
// hyperplanes, or the plain average of the variance axes when no user has
// labels.
func federatedInit(ws []mat.Vector, weights []float64) mat.Vector {
	if len(ws) == 0 {
		return nil
	}
	dim := len(ws[0])
	sum := mat.NewVector(dim)
	var total float64
	for i, w := range ws {
		if weights[i] > 0 {
			sum.AddScaled(weights[i], w)
			total += weights[i]
		}
	}
	if total > 0 {
		sum.Scale(1 / total)
		return sum
	}
	for _, w := range ws {
		sum.Add(w)
	}
	sum.Scale(1 / float64(len(ws)))
	return sum
}

func TestFederatedInit(t *testing.T) {
	ws := []mat.Vector{{1, 0}, {0, 1}, {9, 9}}
	// Weighted average over positive-weight entries only.
	got := federatedInit(ws, []float64{1, 3, 0})
	want := mat.Vector{0.25, 0.75}
	if !got.Equal(want, 1e-12) {
		t.Errorf("federatedInit = %v, want %v", got, want)
	}
	// All-zero weights: plain average of everything.
	uniform := federatedInit(ws, []float64{0, 0, 0})
	if !uniform.Equal(mat.Vector{10.0 / 3, 10.0 / 3}, 1e-12) {
		t.Errorf("uniform federatedInit = %v", uniform)
	}
	if federatedInit(nil, nil) != nil {
		t.Error("empty input should return nil")
	}
}
