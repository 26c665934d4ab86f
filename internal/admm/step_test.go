package admm

import (
	"fmt"
	"math"
	"testing"

	"plos/internal/mat"
	"plos/internal/race"
	"plos/internal/rng"
)

// refStep is Consensus.Step as it stood before it ran the round engine's
// partial arithmetic: its own sum, a materialized x_t − z per worker. Kept as
// the bit reference.
func refStep(c *Consensus, xs []mat.Vector) Residuals {
	dim := len(c.Z)
	sum := mat.NewVector(dim)
	for t, x := range xs {
		sum.Add(x)
		sum.Add(c.U[t])
	}
	zNew := c.prox(sum, len(xs), c.Rho)

	var res Residuals
	res.Dual = c.Rho * math.Sqrt(2*float64(len(xs))) * mat.Dist2(zNew, c.Z)
	var primalSq float64
	for t, x := range xs {
		du := mat.SubVec(x, zNew)
		primalSq += du.SquaredNorm()
		c.U[t].Add(du)
	}
	res.Primal = math.Sqrt(primalSq)
	c.Z = zNew
	return res
}

// awkwardVecs draws n vectors whose coordinates mix ordinary values with the
// ones a rewritten sum gets wrong first: both zeros and denormals.
func awkwardVecs(g *rng.RNG, n, dim int) []mat.Vector {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308}
	out := make([]mat.Vector, n)
	for i := range out {
		v := mat.NewVector(dim)
		for j := range v {
			if g.Intn(4) == 0 {
				v[j] = special[g.Intn(len(special))]
			} else {
				v[j] = g.Norm()
			}
		}
		out[i] = v
	}
	return out
}

func sameBits(a, b mat.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// Step on state that twenty earlier steps left behind carries the bits of
// the reference — z, every dual and both residuals — for either prox.
func TestStepBitIdenticalToReference(t *testing.T) {
	for _, workers := range []int{1, 3, 32} {
		for _, dim := range []int{1, 7, 562} {
			for name, prox := range map[string]ZProx{"average": AverageZ, "squared-norm": SquaredNormZ} {
				t.Run(fmt.Sprintf("T=%d/dim=%d/%s", workers, dim, name), func(t *testing.T) {
					g := rng.New(int64(1000*workers + dim))
					got, err := NewConsensus(dim, workers, 1.5, prox)
					if err != nil {
						t.Fatal(err)
					}
					ref, _ := NewConsensus(dim, workers, 1.5, prox)
					for iter := 0; iter < 20; iter++ {
						xs := awkwardVecs(g, workers, dim)
						res, err := got.Step(xs)
						if err != nil {
							t.Fatal(err)
						}
						want := refStep(ref, xs)
						if math.Float64bits(res.Dual) != math.Float64bits(want.Dual) ||
							math.Float64bits(res.Primal) != math.Float64bits(want.Primal) {
							t.Fatalf("step %d: residuals %+v, reference %+v", iter, res, want)
						}
						if !sameBits(got.Z, ref.Z) {
							t.Fatalf("step %d: z left the reference", iter)
						}
						for u := range got.U {
							if !sameBits(got.U[u], ref.U[u]) {
								t.Fatalf("step %d: dual %d left the reference", iter, u)
							}
						}
					}
				})
			}
		}
	}
}

// A Step allocates the iteration's fresh z and nothing else.
func TestStepAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const workers, dim = 32, 562
	cons, err := NewConsensus(dim, workers, 1, SquaredNormZ)
	if err != nil {
		t.Fatal(err)
	}
	xs := awkwardVecs(rng.New(5), workers, dim)
	if got := testing.AllocsPerRun(20, func() {
		if _, err := cons.Step(xs); err != nil {
			t.Fatal(err)
		}
	}); got > 1 {
		t.Errorf("Step: %v allocs, want at most 1", got)
	}
}
