package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// mulVecGeneric is MulVecTo on the Go dot4: the reference and the benchmark
// baseline for the kernel path.
func mulVecGeneric(dst Vector, m *Matrix, v Vector) {
	c, i := m.Cols, 0
	for ; i+4 <= m.Rows; i += 4 {
		d := m.Data[i*c : (i+4)*c]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4Generic(v, d[:c], d[c:2*c], d[2*c:3*c], d[3*c:])
	}
	for ; i < m.Rows; i++ {
		dst[i] = m.Row(i).Dot(v)
	}
}

// FuzzDotRowsMatchesDot holds MulVecTo, DotRows (over the rows in reverse, so
// not one block of memory), dot4 and the Go dot4 to each row's own Dot, bit
// for bit, on edge values everywhere. The seed corpus covers every length
// 0–40, so each column tail of the 4-column blocks, and every row count 0–9,
// so each remainder of the 4-row blocks; each once with finite values alone
// and once with infinities and NaNs.
func FuzzDotRowsMatchesDot(f *testing.F) {
	for n := 0; n <= 40; n++ {
		f.Add(int64(n), uint8(n), uint8(n%10), false)
		f.Add(int64(n), uint8(n), uint8(n%10), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, cols, rowCount uint8, nonfinite bool) {
		r := rand.New(rand.NewSource(seed))
		n, rows := int(cols)%41, int(rowCount)%10
		m := NewMatrix(rows, n)
		for i := range m.Data {
			m.Data[i] = edgeFloat(r, nonfinite)
		}
		v := make(Vector, n)
		for j := range v {
			v[j] = edgeFloat(r, nonfinite)
		}
		want := make(Vector, rows)
		for i := range want {
			want[i] = m.Row(i).Dot(v)
		}
		got := make(Vector, rows)
		m.MulVecTo(got, v)
		sameOrNaN(t, fmt.Sprintf("MulVecTo %dx%d", rows, n), got, want)
		mulVecGeneric(got, m, v)
		sameOrNaN(t, fmt.Sprintf("MulVecTo on the Go dot4 %dx%d", rows, n), got, want)

		reversed := func(k int) Vector { return m.Row(rows - 1 - k) }
		DotRows(got, v, reversed)
		for i := range got[:rows/2] {
			got[i], got[rows-1-i] = got[rows-1-i], got[i]
		}
		sameOrNaN(t, fmt.Sprintf("DotRows %dx%d", rows, n), got, want)

		for i := 0; i+4 <= rows; i++ {
			rs := [4][]float64{m.Row(i), m.Row(i + 1), m.Row(i + 2), m.Row(i + 3)}
			k, g := make(Vector, 4), make(Vector, 4)
			k[0], k[1], k[2], k[3] = dot4(v, rs[0], rs[1], rs[2], rs[3])
			g[0], g[1], g[2], g[3] = dot4Generic(v, rs[0], rs[1], rs[2], rs[3])
			sameOrNaN(t, fmt.Sprintf("dot4 at rows %d–%d of %dx%d", i, i+3, rows, n), k, want[i:i+4])
			sameOrNaN(t, fmt.Sprintf("Go dot4 at rows %d–%d of %dx%d", i, i+3, rows, n), g, want[i:i+4])
		}
	})
}

// gramGeneric is Gram on the Go dot4x4, four rows per tile as GramRows
// takes them: the benchmark baseline for the tiled kernel.
func gramGeneric(m *Matrix) *Matrix {
	n := m.Rows
	out := NewMatrix(n, n)
	var tile [16]float64
	for i := 0; i < n; i += 4 {
		var v, r [4][]float64
		for a := range v {
			v[a] = m.Row(min(i+a, n-1))
		}
		for k := 0; k <= i; k += 4 {
			for c := range r {
				r[c] = m.Row(min(k+c, n-1))
			}
			dot4x4Generic(&tile, &v, &r)
			for a := 0; a < 4 && i+a < n; a++ {
				for c := 0; c < 4 && k+c <= i+a; c++ {
					out.Data[(i+a)*n+k+c] = tile[4*a+c]
				}
			}
		}
	}
	out.MirrorLower()
	return out
}

// addRowBlocksGeneric is AddRowBlocks on the Go addRows4: the benchmark
// baseline for the row-combination kernel.
func addRowBlocksGeneric(dst Vector, m *Matrix, coef Vector) {
	i := 0
	for ; i+4 <= len(coef); i += 4 {
		r := [4][]float64{m.Row(i), m.Row(i + 1), m.Row(i + 2), m.Row(i + 3)}
		addRows4Generic(dst, &r, (*[4]float64)(coef[i:i+4]))
	}
	for ; i < len(coef); i++ {
		dst.AddScaled(coef[i], m.Row(i))
	}
}

// FuzzDotRows4MatchesDot holds DotRows4 (over rows in reverse, with some of
// the four vectors absent and the others' lengths uneven), GramRows, Gram, the
// tile kernel and the Go tile to each cell's own Dot, bit for bit but NaN↔NaN,
// on edge values everywhere. The seed corpus covers every length 0–72, so each
// column tail of the 4-column blocks, with row counts n mod 10, so each
// remainder of the 4-row tiles; each once with finite values alone and once
// with infinities and NaNs.
func FuzzDotRows4MatchesDot(f *testing.F) {
	for n := 0; n <= 72; n++ {
		f.Add(int64(n), uint8(n), uint8(n%10), uint8(n), false)
		f.Add(int64(n), uint8(n), uint8(n%10), uint8(n), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, cols, rowCount, mask uint8, nonfinite bool) {
		r := rand.New(rand.NewSource(seed))
		n, rows := int(cols)%73, int(rowCount)%10
		m := NewMatrix(rows, n)
		for i := range m.Data {
			m.Data[i] = edgeFloat(r, nonfinite)
		}
		var vs, dst, want [4]Vector
		for a := range vs {
			if mask&(1<<a) != 0 || rows == 0 {
				continue
			}
			vs[a] = make(Vector, n)
			for j := range vs[a] {
				vs[a][j] = edgeFloat(r, nonfinite)
			}
			k := 1 + r.Intn(rows)
			dst[a], want[a] = make(Vector, k), make(Vector, k)
			for i := range want[a] {
				want[a][i] = m.Row(rows - 1 - i).Dot(vs[a])
			}
		}
		DotRows4(dst, vs, func(k int) Vector { return m.Row(rows - 1 - k) })
		for a := range dst {
			sameOrNaN(t, fmt.Sprintf("DotRows4 vector %d, %d rows of %dx%d", a, len(want[a]), rows, n), dst[a], want[a])
		}

		gram := make(Vector, rows*rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < rows; j++ {
				gram[i*rows+j] = m.Row(max(i, j)).Dot(m.Row(min(i, j)))
			}
		}
		sameOrNaN(t, fmt.Sprintf("Gram %dx%d", rows, n), m.Gram().Data, gram)
		half := NewMatrix(rows, rows)
		lo := r.Intn(rows + 1)
		half.GramRows(half, 0, 0) // an empty range writes nothing
		m.GramRows(half, lo, rows)
		m.GramRows(half, 0, lo)
		half.MirrorLower()
		sameOrNaN(t, fmt.Sprintf("GramRows split at %d, %dx%d", lo, rows, n), half.Data, gram)

		if rows < 4 {
			return
		}
		var v, rs [4][]float64
		for a := range v {
			v[a] = m.Row(r.Intn(rows))
			rs[a] = m.Row(r.Intn(rows))
		}
		var kern, gen [16]float64
		dot4x4(&kern, &v, &rs)
		dot4x4Generic(&gen, &v, &rs)
		cells := make(Vector, 16)
		for a := range v {
			for c := range rs {
				cells[4*a+c] = Vector(rs[c]).Dot(v[a])
			}
		}
		sameOrNaN(t, fmt.Sprintf("dot4x4 on %d columns", n), kern[:], cells)
		sameOrNaN(t, fmt.Sprintf("Go dot4x4 on %d columns", n), gen[:], cells)
	})
}

// FuzzAddRowBlocksMatchesGo holds AddRowBlocks, the row-combination kernel and
// its Go loop to the per-element expression dst[j] + (((c0·r0[j] + c1·r1[j]) +
// c2·r2[j]) + c3·r3[j]), each product rounded apart, block by block, then
// AddScaled for the rows past the last block: bit for bit but NaN↔NaN. Some
// blocks' coefficients are all ±0 (skipped), and dst starts non-zero. The
// seed corpus covers every length 0–72, so each remainder of the 8- and
// 4-element passes and the scalar tail, with row counts n mod 10.
func FuzzAddRowBlocksMatchesGo(f *testing.F) {
	for n := 0; n <= 72; n++ {
		f.Add(int64(n), uint8(n), uint8(n%10), false)
		f.Add(int64(n), uint8(n), uint8(n%10), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, cols, rowCount uint8, nonfinite bool) {
		r := rand.New(rand.NewSource(seed))
		n, rows := int(cols)%73, int(rowCount)%10
		m := NewMatrix(rows, n)
		for i := range m.Data {
			m.Data[i] = edgeFloat(r, nonfinite)
		}
		coef := make(Vector, rows)
		for i := range coef {
			coef[i] = edgeFloat(r, nonfinite)
			if i%4 == 0 && r.Intn(4) == 0 {
				clear(coef[i:min(i+4, rows)])
			}
		}
		start := make(Vector, n)
		for j := range start {
			start[j] = edgeFloat(r, nonfinite)
		}
		want := start.Clone()
		i := 0
		for ; i+4 <= rows; i += 4 {
			c0, c1, c2, c3 := coef[i], coef[i+1], coef[i+2], coef[i+3]
			if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
				continue
			}
			r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
			for j := range want {
				p0, p1 := float64(c0*r0[j]), float64(c1*r1[j])
				p2, p3 := float64(c2*r2[j]), float64(c3*r3[j])
				s := p0 + p1
				s += p2
				s += p3
				want[j] += s
			}
		}
		for ; i < rows; i++ {
			if coef[i] != 0 {
				want.AddScaled(coef[i], m.Row(i))
			}
		}
		got := start.Clone()
		AddRowBlocks(got, m, coef)
		sameOrNaN(t, fmt.Sprintf("AddRowBlocks %dx%d", rows, n), got, want)

		if rows < 4 {
			return
		}
		rs := [4][]float64{m.Row(0), m.Row(1), m.Row(2), m.Row(3)}
		c := [4]float64{coef[0], coef[1], coef[2], coef[3]}
		kern, gen := start.Clone(), start.Clone()
		addRows4(kern, &rs, &c)
		addRows4Generic(gen, &rs, &c)
		for j := range want {
			p0, p1 := float64(c[0]*rs[0][j]), float64(c[1]*rs[1][j])
			p2, p3 := float64(c[2]*rs[2][j]), float64(c[3]*rs[3][j])
			want[j] = start[j] + (((p0 + p1) + p2) + p3)
		}
		sameOrNaN(t, fmt.Sprintf("addRows4 on %d columns", n), kern, want)
		sameOrNaN(t, fmt.Sprintf("Go addRows4 on %d columns", n), gen, want)
	})
}

// BenchmarkHyperplane times AddRowBlocks, the row-space device's
// w = b + Xᵀβ, against its Go loop at dist-inproc's device shape (100 rows
// of 562 features) and a few-label device's (12 rows), every β non-zero.
func BenchmarkHyperplane(b *testing.B) {
	for _, shape := range []struct{ rows, cols int }{{100, 562}, {12, 562}} {
		r := rand.New(rand.NewSource(1))
		m := randMatrix(r, shape.rows, shape.cols)
		beta, w := make(Vector, shape.rows), make(Vector, shape.cols)
		for i := range beta {
			beta[i] = r.NormFloat64()
		}
		name := fmt.Sprintf("%dx%d", shape.rows, shape.cols)
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AddRowBlocks(w, m, beta)
			}
		})
		b.Run(name+"/go", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addRowBlocksGeneric(w, m, beta)
			}
		})
	}
}

// BenchmarkGram times Gram on the tiled kernel against the Go tile at a
// row-space device's K = XXᵀ (100×562) and a pooled ridge init's (250×562).
func BenchmarkGram(b *testing.B) {
	for _, shape := range []struct{ rows, cols int }{{100, 562}, {250, 562}} {
		m := randMatrix(rand.New(rand.NewSource(1)), shape.rows, shape.cols)
		name := fmt.Sprintf("%dx%d", shape.rows, shape.cols)
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.Gram()
			}
		})
		b.Run(name+"/go", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = gramGeneric(m)
			}
		})
	}
}
