package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	// Data holds the entries in row-major order: element (i,j) lives at
	// Data[i*Cols+j]. len(Data) == Rows*Cols.
	Data []float64
}

// NewMatrix returns a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: NewMatrix: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: FromRows: ragged row %d: %d vs %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a Vector sharing the matrix's storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MulVec returns m * v as a new vector.
func (m *Matrix) MulVec(v Vector) Vector {
	out := make(Vector, m.Rows)
	m.MulVecTo(out, v)
	return out
}

// MulVecTo computes dst = m * v without allocating. dst must have length
// m.Rows and v length m.Cols; dst must not alias v.
//
// Rows go through the kernel four at a time (dot4): each dst[i] is still the
// plain ascending-j sum Σ_j m[i][j]·v[j] — bitwise what a per-row Dot yields
// — while the four independent accumulator chains overlap: in the lanes of
// one AVX register on amd64, in the pipeline elsewhere.
func (m *Matrix) MulVecTo(dst, v Vector) {
	checkLen("MulVecTo dst", len(dst), m.Rows)
	checkLen("MulVecTo v", len(v), m.Cols)
	c, i := m.Cols, 0
	for ; i+4 <= m.Rows; i += 4 {
		d := m.Data[i*c : (i+4)*c]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(v, d[:c], d[c:2*c], d[2*c:3*c], d[3*c:])
	}
	for ; i < m.Rows; i++ {
		dst[i] = Vector(m.Data[i*c : (i+1)*c]).Dot(v)
	}
}

// MulVecT returns mᵀ * v as a new vector (v has length m.Rows).
func (m *Matrix) MulVecT(v Vector) Vector {
	checkLen("MulVecT", len(v), m.Rows)
	out := make(Vector, m.Cols)
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			out[j] += float64(vi * x)
		}
	}
	return out
}

// Mul returns m * b as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul: inner dimension mismatch %d vs %d", m.Cols, b.Rows))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += float64(a * bv)
			}
		}
	}
	return out
}

// Scale multiplies every entry by a, in place.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// Add sets m = m + b in place.
func (m *Matrix) Add(b *Matrix) {
	m.checkSameShape("Add", b)
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// Sub sets m = m - b in place.
func (m *Matrix) Sub(b *Matrix) {
	m.checkSameShape("Sub", b)
	for i := range m.Data {
		m.Data[i] -= b.Data[i]
	}
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Trace returns the sum of diagonal entries of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.Rows != m.Cols {
		panic("mat: Trace: matrix not square")
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		s += m.At(i, i)
	}
	return s
}

// FrobeniusNorm returns sqrt(Σ m_ij^2).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.Data {
		s += float64(x * x)
	}
	return math.Sqrt(s)
}

// Equal reports whether m and b have identical shape and entries within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%9.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (m *Matrix) checkSameShape(op string, b *Matrix) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s: shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}

// Gram returns XXᵀ for the row matrix X (rows are data points): the
// Rows x Rows matrix of pairwise inner products, each the Dot of its two rows
// bit for bit. The cells up to the diagonal come from GramRows, mirrored.
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.Rows, m.Rows)
	m.GramRows(out, 0, m.Rows)
	out.MirrorLower()
	return out
}

// GramRows fills rows lo…hi−1 of out = XXᵀ up to the diagonal,
// out[i][j] = X_i·X_j for j ≤ i, as Gram does: four rows per DotRows4 tile.
// Calls on disjoint row ranges write disjoint cells, so a caller may fill
// them concurrently; MirrorLower then completes the matrix.
func (m *Matrix) GramRows(out *Matrix, lo, hi int) {
	n := m.Rows
	for i := lo; i < hi; i += 4 {
		var dst, vs [4]Vector
		for a := 0; a < 4 && i+a < hi; a++ {
			dst[a], vs[a] = out.Data[(i+a)*n:(i+a)*n+i+a+1], m.Row(i+a)
		}
		DotRows4(dst, vs, m.Row)
	}
}

// MirrorLower copies the square matrix's strict lower triangle onto its upper
// triangle.
func (m *Matrix) MirrorLower() {
	n := m.Rows
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Data[j*n+i] = m.Data[i*n+j]
		}
	}
}
