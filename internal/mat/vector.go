// Package mat provides the dense linear-algebra substrate used by every
// solver in this repository: vectors, column-major-free dense matrices,
// Cholesky factorization, and a symmetric Jacobi eigensolver.
//
// The package is deliberately small and allocation-conscious: the PLOS
// solvers (internal/core, internal/qp) sit in tight optimization loops and
// reuse buffers, so most operations come in both allocating and in-place
// (dst-receiving) forms. All data is float64. Dimension mismatches are
// programmer errors and panic with a descriptive message, mirroring the
// behaviour of slice indexing; fallible numerical operations (e.g. Cholesky
// on a non-PD matrix) return errors instead.
//
// The hot kernels keep every sum's order: MulVecTo and DotRows run four row
// sums side by side, one per lane of an AVX register, and AddScaledRows runs
// one element's axpy chain per lane. amd64 picks the AVX kernels at init when
// the CPU and OS support them; without AVX, under the purego build tag and on
// every other GOARCH the same sums run as Go loops. Each result is bitwise
// what the one-sum-at-a-time form (Dot, AddScaled) gives: no kernel fuses a
// multiply-add, and the Go loops round every product with an explicit
// float64(x*y), which forbids the compiler's fusion on arm64 and the like.
package mat

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector. The zero value is an empty vector.
// A Vector is just a named slice: standard slice operations (append, len,
// indexing, range) all apply.
type Vector []float64

// NewVector returns a zeroed vector of length n.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Resize returns v re-sliced to length n, or a fresh vector when v's capacity
// is too small. Contents are undefined: it is for buffers the caller refills.
func Resize(v Vector, n int) Vector {
	if cap(v) < n {
		return make(Vector, n)
	}
	return v[:n]
}

// CopyFrom copies src into v. The lengths must match.
func (v Vector) CopyFrom(src Vector) {
	checkLen("CopyFrom", len(v), len(src))
	copy(v, src)
}

// Zero sets every element of v to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Dot returns the inner product v·w.
func (v Vector) Dot(w Vector) float64 {
	checkLen("Dot", len(v), len(w))
	var s float64
	for i, x := range v {
		s += float64(x * w[i])
	}
	return s
}

// dot4Generic returns r0·v, r1·v, r2·v and r3·v, all of v's length: dot4's
// kernel in Go, the fallback without AVX and the oracle the assembly is
// tested against. Each sum runs in ascending index order with its own
// accumulator, so every result carries the bits of the corresponding Dot;
// only the instruction-level overlap differs.
func dot4Generic(v, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(v)], r1[:len(v)], r2[:len(v)], r3[:len(v)]
	for j, x := range v {
		s0 += float64(r0[j] * x)
		s1 += float64(r1[j] * x)
		s2 += float64(r2[j] * x)
		s3 += float64(r3[j] * x)
	}
	return
}

// DotRows sets dst[k] = row(k)·v for every k in [0, len(dst)): a matrix-vector
// product over rows that need not be contiguous (working-set constraints,
// Gram columns). Every row must have v's length. Rows are taken four at a
// time through the MulVecTo kernel, so each dst[k] is bitwise row(k).Dot(v).
func DotRows(dst, v Vector, row func(k int) Vector) {
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		r0, r1, r2, r3 := row(k), row(k+1), row(k+2), row(k+3)
		checkLen("DotRows", len(r0), len(v))
		checkLen("DotRows", len(r1), len(v))
		checkLen("DotRows", len(r2), len(v))
		checkLen("DotRows", len(r3), len(v))
		dst[k], dst[k+1], dst[k+2], dst[k+3] = dot4(v, r0, r1, r2, r3)
	}
	for ; k < len(dst); k++ {
		dst[k] = row(k).Dot(v)
	}
}

// Norm2 returns the Euclidean norm ||v||.
func (v Vector) Norm2() float64 {
	// Two-pass scaling is unnecessary at the magnitudes this repo works
	// with; plain accumulation keeps the hot loops branch-free.
	return math.Sqrt(v.Dot(v))
}

// SquaredNorm returns ||v||^2.
func (v Vector) SquaredNorm() float64 { return v.Dot(v) }

// Norm1 returns the l1 norm Σ|v_i|.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns max_i |v_i|; 0 for an empty vector.
func (v Vector) NormInf() float64 {
	var s float64
	for _, x := range v {
		if a := math.Abs(x); a > s {
			s = a
		}
	}
	return s
}

// Scale multiplies v by a in place.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Add sets v = v + w in place.
func (v Vector) Add(w Vector) {
	checkLen("Add", len(v), len(w))
	for i := range v {
		v[i] += w[i]
	}
}

// Sub sets v = v - w in place.
func (v Vector) Sub(w Vector) {
	checkLen("Sub", len(v), len(w))
	for i := range v {
		v[i] -= w[i]
	}
}

// AddScaled sets v = v + a*w in place (axpy).
func (v Vector) AddScaled(a float64, w Vector) {
	checkLen("AddScaled", len(v), len(w))
	for i := range v {
		v[i] += float64(a * w[i])
	}
}

// Sum returns Σ v_i.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Max returns the maximum element and its index; (-Inf, -1) for empty v.
func (v Vector) Max() (float64, int) {
	best, idx := math.Inf(-1), -1
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return best, idx
}

// Min returns the minimum element and its index; (+Inf, -1) for empty v.
func (v Vector) Min() (float64, int) {
	best, idx := math.Inf(1), -1
	for i, x := range v {
		if x < best {
			best, idx = x, i
		}
	}
	return best, idx
}

// Equal reports whether v and w have the same length and every pair of
// elements differs by at most tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// Axpy returns a new vector a*x + y.
func Axpy(a float64, x, y Vector) Vector {
	checkLen("Axpy", len(x), len(y))
	out := make(Vector, len(x))
	for i := range x {
		out[i] = float64(a*x[i]) + y[i]
	}
	return out
}

// SubVec returns a new vector x - y.
func SubVec(x, y Vector) Vector {
	out := make(Vector, len(x))
	SubVecTo(out, x, y)
	return out
}

// SubVecTo sets dst = x - y, all of one length; dst may be x or y.
func SubVecTo(dst, x, y Vector) {
	checkLen("SubVec", len(x), len(y))
	checkLen("SubVec", len(dst), len(x))
	for i := range x {
		dst[i] = x[i] - y[i]
	}
}

// AddVec returns a new vector x + y.
func AddVec(x, y Vector) Vector {
	checkLen("AddVec", len(x), len(y))
	out := make(Vector, len(x))
	for i := range x {
		out[i] = x[i] + y[i]
	}
	return out
}

// ScaleVec returns a new vector a*x.
func ScaleVec(a float64, x Vector) Vector {
	out := make(Vector, len(x))
	for i := range x {
		out[i] = a * x[i]
	}
	return out
}

// Dist2 returns the Euclidean distance ||x-y||.
func Dist2(x, y Vector) float64 {
	checkLen("Dist2", len(x), len(y))
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += float64(d * d)
	}
	return math.Sqrt(s)
}

// SquaredDist returns ||x-y||^2.
func SquaredDist(x, y Vector) float64 {
	checkLen("SquaredDist", len(x), len(y))
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += float64(d * d)
	}
	return s
}

func checkLen(op string, a, b int) {
	if a != b {
		panic(fmt.Sprintf("mat: %s: dimension mismatch %d vs %d", op, a, b))
	}
}
