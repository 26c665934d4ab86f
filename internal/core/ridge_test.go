package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"plos/internal/mat"
	"plos/internal/rng"
)

// ridgeProblem draws a seeded n×d two-class design: unit Gaussian rows
// shifted by ±0.5 along every coordinate, labels alternating.
func ridgeProblem(seed int64, n, d int) (*mat.Matrix, []float64) {
	g := rng.New(seed)
	x := mat.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 1 - 2*float64(i%2)
		row := x.Row(i)
		for j := range row {
			row[j] = g.Norm() + 0.5*y[i]
		}
	}
	return x, y
}

// ridgeDense is the d×d normal-equations form on its own, whatever the
// shape: the reference the small-dimension form is compared against.
func ridgeDense(x *mat.Matrix, y []float64) (gram *mat.Matrix, rhs, w mat.Vector, err error) {
	d := x.Cols
	gram = mat.NewMatrix(d, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for a := 0; a < d; a++ {
			if row[a] == 0 {
				continue
			}
			ga := gram.Data[a*d:]
			for b := 0; b < d; b++ {
				ga[b] += row[a] * row[b]
			}
		}
	}
	eps := gram.Trace()/float64(d) + 1e-9
	for a := 0; a < d; a++ {
		gram.Data[a*d+a] += eps
	}
	rhs = mat.NewVector(d)
	for i := 0; i < x.Rows; i++ {
		rhs.AddScaled(y[i], x.Row(i))
	}
	w, err = mat.SolveSPD(gram, rhs)
	return gram, rhs, w, err
}

func bitsHash(v mat.Vector) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// Both forms solve the same system: on either side of n = d the returned w
// matches the d×d solution and satisfies the normal equations, and from
// n = d upward it is the d×d solution bit for bit.
func TestRidgeFormsAgree(t *testing.T) {
	const d = 562
	for _, s := range [][2]int{{1, 8}, {3, d}, {d - 1, d}, {d, d}, {d + 1, d}, {600, d}} {
		n, d := s[0], s[1]
		x, y := ridgeProblem(int64(1000*n+d), n, d)
		w, err := ridgeToward(x, y)
		if err != nil {
			t.Fatalf("(%d,%d): %v", n, d, err)
		}
		gram, rhs, ref, err := ridgeDense(x, y)
		if err != nil {
			t.Fatalf("(%d,%d) reference: %v", n, d, err)
		}
		if n >= d {
			if bitsHash(w) != bitsHash(ref) {
				t.Errorf("(%d,%d): n ≥ d must take the d×d form bit for bit", n, d)
			}
			continue
		}
		if diff := mat.Dist2(w, ref); diff > 1e-9*ref.Norm2() {
			t.Errorf("(%d,%d): ‖w − w_dense‖ = %g, ‖w_dense‖ = %g", n, d, diff, ref.Norm2())
		}
		if res := mat.Dist2(gram.MulVec(w), rhs); res > 1e-9*rhs.Norm2() {
			t.Errorf("(%d,%d): residual %g against ‖Xᵀy‖ = %g", n, d, res, rhs.Norm2())
		}
	}
}

// The d×d branch returns what it returned before the small-dimension form
// existed: hashes of the solution bits recorded at that commit.
func TestRidgeDenseBitsRecorded(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bits recorded on amd64; other targets may fuse multiply-adds")
	}
	for _, c := range []struct {
		n, d int
		want uint64
	}{
		{8, 8, 0xa22e789c6ca93fb1},
		{9, 8, 0x9c5d772ade14f5c},
		{600, 562, 0xff0fb673fda2b1a7},
	} {
		x, y := ridgeProblem(int64(1000*c.n+c.d), c.n, c.d)
		w, err := ridgeToward(x, y)
		if err != nil {
			t.Fatalf("(%d,%d): %v", c.n, c.d, err)
		}
		if got := bitsHash(w); got != c.want {
			t.Errorf("(%d,%d): solution bits hash %#x, recorded %#x", c.n, c.d, got, c.want)
		}
	}
}

// The pooled init fills the n×n kernel's rows across workers: the solution
// is ridgeToward's bit for bit at any worker count, on either side of n = d.
func TestRidgeTowardOnSameBits(t *testing.T) {
	const d = 121
	for _, n := range []int{1, 3, 50, d - 1, 130} {
		x, y := ridgeProblem(int64(1000*n+d), n, d)
		want, err := ridgeToward(x, y)
		if err != nil {
			t.Fatalf("(%d,%d): %v", n, d, err)
		}
		for _, workers := range []int{2, 8, 0} {
			w, err := ridgeTowardOn(x, y, workers)
			if err != nil {
				t.Fatalf("(%d,%d) workers=%d: %v", n, d, workers, err)
			}
			if bitsHash(w) != bitsHash(want) {
				t.Errorf("(%d,%d) workers=%d: solution bits differ from one worker's", n, d, workers)
			}
		}
	}
}
