package rng

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mismatch re-seeds got (a *rand.Rand on the package's source, as SplitNInto
// does) with seed and draws from it and from a fresh math/rand source of the
// same seed: draws raw words, then as many calls of each *rand.Rand method
// the package uses, interleaved. It describes the first difference, or
// returns "" when the two streams are one.
func mismatch(got *rand.Rand, seed int64, draws int) string {
	got.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	for k := 0; k < draws; k++ {
		if a, b := got.Uint64(), want.Uint64(); a != b {
			return fmt.Sprintf("seed %d: word %d is %#x, math/rand's %#x", seed, k, a, b)
		}
	}
	x, y := make([]int, 9), make([]int, 9)
	for k := 0; k < draws; k++ {
		var a, b uint64 // the call's result, floats as their bits
		switch k % 7 {
		case 0:
			a, b = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 1:
			a, b = uint64(got.Intn(k+1)), uint64(want.Intn(k+1))
		case 2:
			a, b = uint64(got.Intn(1<<40+k)), uint64(want.Intn(1<<40+k)) // the Int63n path
		case 3:
			a, b = uint64(got.Int63()), uint64(want.Int63())
		case 4:
			a, b = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		case 5:
			if p, q := got.Perm(k%23), want.Perm(k%23); !slices.Equal(p, q) {
				a, b = 0, 1
			}
		case 6:
			for i := range x {
				x[i], y[i] = i, i
			}
			got.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
			want.Shuffle(len(y), func(i, j int) { y[i], y[j] = y[j], y[i] })
			if !slices.Equal(x, y) {
				a, b = 0, 1
			}
		}
		if a != b {
			return fmt.Sprintf("seed %d: call %d (method %d) differs from math/rand's", seed, k, k%7)
		}
	}
	return ""
}

// TestSourceMatchesMathRand: the package's source is math/rand's, bit for
// bit, on the seeds its seeding special-cases (zero, multiples of the
// modulus, negatives, the extremes, the stand-in for zero) and on a
// thousand random ones, each seeded into one reused stream.
func TestSourceMatchesMathRand(t *testing.T) {
	const mod = 1<<31 - 1
	seeds := []int64{0, 1, -1, mod, -mod, 2 * mod, mod - 1, mod + 1, -1 << 63, 1<<63 - 1, 89482311}
	pick := rand.New(rand.NewSource(2024))
	for range 1000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	got := New(7).r
	for _, seed := range seeds {
		if msg := mismatch(got, seed, 2000); msg != "" {
			t.Fatal(msg)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, 1<<31 - 1, -1 << 63, 89482311} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		got := New(7).r
		got.Perm(700) // a used stream, re-seeded as SplitNInto does
		if msg := mismatch(got, seed, 700); msg != "" {
			t.Fatal(msg)
		}
	})
}

// BenchmarkSplitNInto is one re-seed of a reused child stream, the cost a
// cohort generator pays per user. "math-rand" re-seeds math/rand's own
// source with the same seeds, the reference the package's source replaces.
func BenchmarkSplitNInto(b *testing.B) {
	g := New(7)
	b.Run("source", func(b *testing.B) {
		child := New(0)
		for i := 0; i < b.N; i++ {
			g.SplitNInto(child, "u", i)
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Seed(g.seedN("u", i))
		}
	})
}

var normSink float64

// BenchmarkNorm is one standard normal draw: math/rand's ziggurat over the
// package's source.
func BenchmarkNorm(b *testing.B) {
	g := New(7)
	var sum float64
	for i := 0; i < b.N; i++ {
		sum += g.Norm()
	}
	normSink = sum
}
