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
// sums side by side, one per lane of an AVX register (dot4); DotRows4, Gram
// and GramRows run sixteen, four vectors against four rows that one tile
// transposes once (dot4x4); AddScaledRows runs one element's axpy chain per
// lane, 32 elements per pass and the rest in one masked pass; and
// AddRowBlocks adds four rows per pass, each element's four products summed
// in row order (addRows4). amd64 runs the AVX kernels when internal/cpu
// reports AVX; without it, under the purego build tag and on every other
// GOARCH the same sums run as Go loops. Each result is bitwise what the
// one-sum-at-a-time form (Dot, AddScaled) gives: no kernel fuses a
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

// dot4x4Generic sets dst[4a+k] = r[k]·v[a], all of v[0]'s length: dot4x4's
// kernel in Go, four dot4Generic calls, so every cell carries the bits of
// the corresponding Dot.
func dot4x4Generic(dst *[16]float64, v, r *[4][]float64) {
	for a, va := range v {
		dst[4*a], dst[4*a+1], dst[4*a+2], dst[4*a+3] = dot4Generic(va, r[0], r[1], r[2], r[3])
	}
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

// DotRows4 is DotRows for up to four vectors at once: dst[a][k] = row(k)·vs[a]
// for every a < 4 and k in [0, len(dst[a])); vs[a] may be nil where dst[a] is
// empty. Every row and vector must have one length, and row(k) must exist
// for every k below the longest dst[a]. Rows are taken four at a time against
// all four vectors by a tiled kernel, which loads and transposes the four
// rows once for the sixteen sums (cells past a shorter dst[a] are computed
// and dropped); each cell is still bitwise row(k).Dot(vs[a]). With a single
// vector it is DotRows.
func DotRows4(dst, vs [4]Vector, row func(k int) Vector) {
	n, present, first := 0, 0, -1
	for a := range dst {
		if len(dst[a]) > 0 {
			n = max(n, len(dst[a]))
			present++
			if first < 0 {
				first = a
			}
		}
	}
	if present <= 1 {
		if present == 1 {
			DotRows(dst[first], vs[first], row)
		}
		return
	}
	var v, r [4][]float64
	for a := range v {
		v[a] = vs[first]
		if len(dst[a]) > 0 {
			checkLen("DotRows4", len(vs[a]), len(vs[first]))
			v[a] = vs[a]
		}
	}
	var tile [16]float64
	for k := 0; k < n; k += 4 {
		for c := range r {
			r[c] = r[0]
			if k+c < n {
				r[c] = row(k + c)
				checkLen("DotRows4", len(r[c]), len(v[0]))
			}
		}
		dot4x4(&tile, &v, &r)
		for a, d := range dst {
			for c := 0; c < 4 && k+c < len(d); c++ {
				d[k+c] = tile[4*a+c]
			}
		}
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
