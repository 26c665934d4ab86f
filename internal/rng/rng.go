// Package rng provides the deterministic randomness substrate for the
// repository. Every experiment, dataset generator, and stochastic solver in
// this repo takes an explicit *rng.RNG (or a seed), never the global
// math/rand state, so that every figure in EXPERIMENTS.md is regenerable
// bit-for-bit.
//
// The package wraps math/rand's PCG-free source with a splitting scheme:
// Split derives an independent child stream from a parent by hashing the
// parent seed with a label. That lets a single experiment seed fan out
// deterministically over users, trials, and sweep points without the
// streams colliding.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"

	"plos/internal/mat"
)

// RNG is a deterministic random stream. It is NOT safe for concurrent use;
// Split a child per goroutine instead.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Split derives an independent child stream keyed by label. Splitting is a
// pure function of (parent seed, label): it does not consume parent state,
// so the parent's own sequence is unaffected and splits are order-free.
func (g *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(g.seed) >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	return New(int64(h.Sum64()))
}

// SplitN derives the i-th indexed child stream under label.
func (g *RNG) SplitN(label string, i int) *RNG {
	return New(g.seedN(label, i))
}

// SplitNInto makes child the stream SplitN(label, i) returns, re-seeded in
// its own storage. A math/rand source is 5 KB and a child per user is drawn
// and dropped within one loop body; a loop over a cohort keeps one.
func (g *RNG) SplitNInto(child *RNG, label string, i int) {
	child.seed = g.seedN(label, i)
	child.r.Seed(child.seed)
}

// seedN is the seed of the i-th indexed child under label.
func (g *RNG) seedN(label string, i int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for k := 0; k < 8; k++ {
		buf[k] = byte(uint64(g.seed) >> (8 * k))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(label))
	for k := 0; k < 8; k++ {
		buf[k] = byte(uint64(i) >> (8 * k))
	}
	_, _ = h.Write(buf[:])
	return int64(h.Sum64())
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a uniform non-negative 63-bit value (used for session
// tokens, which must be reproducible from the seed).
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Norm returns a standard normal sample.
func (g *RNG) Norm() float64 { return g.r.NormFloat64() }

// Gauss returns a normal sample with the given mean and standard deviation.
func (g *RNG) Gauss(mean, std float64) float64 { return mean + std*g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles n elements via swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool { return g.r.Float64() < p }

// NormVector returns an n-dimensional standard normal vector.
func (g *RNG) NormVector(n int) mat.Vector {
	v := make(mat.Vector, n)
	for i := range v {
		v[i] = g.r.NormFloat64()
	}
	return v
}

// UnitVector returns a uniformly random direction on the (n-1)-sphere.
func (g *RNG) UnitVector(n int) mat.Vector {
	for {
		v := g.NormVector(n)
		if norm := v.Norm2(); norm > 1e-12 {
			v.Scale(1 / norm)
			return v
		}
	}
}

// SampleWithoutReplacement returns k distinct indices uniformly drawn from
// [0,n), in random order. It panics if k > n.
func (g *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: SampleWithoutReplacement: k > n")
	}
	perm := g.r.Perm(n)
	out := make([]int, k)
	copy(out, perm[:k])
	return out
}

// MVN samples from a multivariate normal with the given mean and covariance.
// It Cholesky-factorizes cov once at construction.
type MVN struct {
	mean mat.Vector
	l    *mat.Matrix // lower Cholesky factor of cov
}

// NewMVN builds a multivariate-normal sampler. cov must be symmetric
// positive definite.
func NewMVN(mean mat.Vector, cov *mat.Matrix) (*MVN, error) {
	f, err := mat.Cholesky(cov)
	if err != nil {
		return nil, err
	}
	return &MVN{mean: mean.Clone(), l: f.L()}, nil
}

// Sample draws one sample using stream g.
func (m *MVN) Sample(g *RNG) mat.Vector {
	z := g.NormVector(len(m.mean))
	x := m.l.MulVec(z)
	x.Add(m.mean)
	return x
}

// Dim returns the dimensionality of the distribution.
func (m *MVN) Dim() int { return len(m.mean) }

// Rotation2D returns the 2x2 rotation matrix for angle theta (radians).
// The synthetic-data experiments (paper §VI-D) rotate user datasets around
// the origin with uniformly spaced angles.
func Rotation2D(theta float64) *mat.Matrix {
	c, s := math.Cos(theta), math.Sin(theta)
	return mat.FromRows([][]float64{{c, -s}, {s, c}})
}
