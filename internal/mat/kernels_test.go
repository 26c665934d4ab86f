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
