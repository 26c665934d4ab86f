package shard_test

import (
	"math"
	"testing"

	"plos/internal/core"
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
// core.FederatedInit bit for bit — the K=1 leg of the bit-identity
// contract — on both the label-weighted path and the no-labels fallback.
func TestFoldInitSinglePartitionMatchesFederatedInit(t *testing.T) {
	ws := randVecs(3, 7, 5)
	for name, weights := range map[string][]float64{
		"weighted": {3, 0, 1, 0, 2, 5, 0},
		"fallback": {0, 0, 0, 0, 0, 0, 0},
	} {
		want := core.FederatedInit(ws, weights)
		got := shard.FoldInit([]shard.InitPartial{shard.NewInitPartial(ws, weights, 5)}, len(ws))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: w0[%d] = %x, FederatedInit has %x", name, j, got[j], want[j])
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
