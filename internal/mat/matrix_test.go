package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64() * 5
	}
	return m
}

func TestMatrixAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.At(0, 1) != 9 {
		t.Errorf("Set failed")
	}
	if got := m.Row(1); !got.Equal(Vector{4, 5, 6}, 0) {
		t.Errorf("Row(1) = %v", got)
	}
}

func TestRowSharesStorage(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(0)[1] = 42
	if m.At(0, 1) != 42 {
		t.Error("Row should share storage")
	}
}

func TestIdentityAndTrace(t *testing.T) {
	id := Identity(4)
	if got := id.Trace(); got != 4 {
		t.Errorf("Trace(I4) = %v", got)
	}
	v := Vector{1, 2, 3, 4}
	if got := id.MulVec(v); !got.Equal(v, 0) {
		t.Errorf("I*v = %v", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 1e-12) {
		t.Errorf("a*b =\n%v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulVecT(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := Vector{1, 2}
	want := a.T().MulVec(v)
	if got := a.MulVecT(v); !got.Equal(want, 1e-12) {
		t.Errorf("MulVecT = %v, want %v", got, want)
	}
}

func TestGram(t *testing.T) {
	x := FromRows([][]float64{{1, 0}, {0, 2}, {1, 1}})
	g := x.Gram()
	want := FromRows([][]float64{{1, 0, 1}, {0, 4, 2}, {1, 2, 2}})
	if !g.Equal(want, 1e-12) {
		t.Errorf("Gram =\n%v", g)
	}
	if !g.IsSymmetric(0) {
		t.Error("Gram should be symmetric")
	}
}

func TestAddSubScaleFrobenius(t *testing.T) {
	a := FromRows([][]float64{{3, 4}, {0, 0}})
	if got := a.FrobeniusNorm(); !almostEq(got, 5, 1e-12) {
		t.Errorf("FrobeniusNorm = %v", got)
	}
	b := a.Clone()
	a.Add(b)
	if a.At(0, 0) != 6 {
		t.Error("Add failed")
	}
	a.Sub(b)
	if !a.Equal(b, 0) {
		t.Error("Sub failed")
	}
	a.Scale(2)
	if a.At(0, 1) != 8 {
		t.Error("Scale failed")
	}
}

func TestMatrixString(t *testing.T) {
	s := FromRows([][]float64{{1, 2}}).String()
	if !strings.Contains(s, "1.0000") || !strings.Contains(s, "2.0000") {
		t.Errorf("String() = %q", s)
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched inner dims should panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

// Property: (AB)ᵀ = BᵀAᵀ.
func TestPropertyTransposeOfProduct(t *testing.T) {
	f := func(seed int64, d1, d2, d3 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := int(d1%6)+1, int(d2%6)+1, int(d3%6)+1
		a, b := randMatrix(r, m, k), randMatrix(r, k, n)
		return a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MulVec distributes over vector addition.
func TestPropertyMulVecLinear(t *testing.T) {
	f := func(seed int64, d1, d2 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := int(d1%8)+1, int(d2%8)+1
		a := randMatrix(r, m, n)
		x, y := randVec(r, n), randVec(r, n)
		left := a.MulVec(AddVec(x, y))
		right := AddVec(a.MulVec(x), a.MulVec(y))
		return left.Equal(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Gram matrices are positive semi-definite (xᵀGx >= 0).
func TestPropertyGramPSD(t *testing.T) {
	f := func(seed int64, d1, d2 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := int(d1%6)+1, int(d2%6)+1
		g := randMatrix(r, m, n).Gram()
		x := randVec(r, m)
		return x.Dot(g.MulVec(x)) >= -1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	// A = LLᵀ with known solution.
	a := FromRows([][]float64{{4, 2, 0}, {2, 5, 2}, {0, 2, 5}})
	f, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	want := Vector{1, -2, 3}
	b := a.MulVec(want)
	got := f.Solve(b)
	if !got.Equal(want, 1e-9) {
		t.Errorf("Solve = %v, want %v", got, want)
	}
	l := f.L()
	if !l.Mul(l.T()).Equal(a, 1e-9) {
		t.Error("LLᵀ != A")
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestSolveSPD(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	x, err := SolveSPD(a, Vector{3, 3})
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	if !x.Equal(Vector{1, 1}, 1e-10) {
		t.Errorf("x = %v", x)
	}
}

// Property: Cholesky solve reproduces the RHS (A x = b round trip) on
// random SPD matrices built as MMᵀ + I.
func TestPropertyCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(dRaw%8) + 1
		m := randMatrix(r, n, n)
		a := m.Gram()
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		fac, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := randVec(r, n)
		b := a.MulVec(x)
		tol := 1e-6
		for _, xi := range x {
			tol = math.Max(tol, 1e-6*(1+math.Abs(xi)))
		}
		return fac.Solve(b).Equal(x, tol)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// choleskyAtSet is the element-accessor form of Cholesky and Solve that the
// row-slice loops replaced; it is the bit-level reference for them.
func choleskyAtSet(a *Matrix, b Vector) (*Matrix, Vector) {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	y := make(Vector, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return l, x
}

// The factor and the solve are bitwise those of the element-accessor
// loops, on a ridge system of the HAR width and on a small one.
func TestCholeskyBitIdenticalToAtSet(t *testing.T) {
	for _, shape := range [][2]int{{40, 562}, {9, 5}} {
		r := rand.New(rand.NewSource(int64(shape[1])))
		x := randMatrix(r, shape[0], shape[1])
		n := shape[1]
		a := x.T().Gram() // XᵀX
		eps := a.Trace()/float64(n) + 1e-9
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+eps)
		}
		b := randVec(r, n)
		wantL, wantX := choleskyAtSet(a, b)
		f, err := Cholesky(a)
		if err != nil {
			t.Fatalf("%dx%d: %v", n, n, err)
		}
		gotL, gotX := f.L(), f.Solve(b)
		for i, v := range wantL.Data {
			if math.Float64bits(gotL.Data[i]) != math.Float64bits(v) {
				t.Fatalf("%dx%d: L[%d] = %x, want %x", n, n, i, gotL.Data[i], v)
			}
		}
		for i, v := range wantX {
			if math.Float64bits(gotX[i]) != math.Float64bits(v) {
				t.Fatalf("%dx%d: x[%d] = %x, want %x", n, n, i, gotX[i], v)
			}
		}
	}
}

func TestEigenSymKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatalf("EigenSym: %v", err)
	}
	if !vals.Equal(Vector{1, 3}, 1e-10) {
		t.Errorf("vals = %v", vals)
	}
	// Check A v = λ v for each column.
	for k := 0; k < 2; k++ {
		v := vecs.T().Row(k)
		av := a.MulVec(v)
		lv := v.Clone()
		lv.Scale(vals[k])
		if !av.Equal(lv, 1e-9) {
			t.Errorf("A v != λ v for k=%d", k)
		}
	}
}

func TestEigenSymErrors(t *testing.T) {
	if _, _, err := EigenSym(NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square input")
	}
	asym := FromRows([][]float64{{1, 5}, {0, 1}})
	if _, _, err := EigenSym(asym); err == nil {
		t.Error("expected error for asymmetric input")
	}
}

// Property: eigendecomposition reconstructs the matrix and eigenvectors are
// orthonormal, for random symmetric matrices.
func TestPropertyEigenReconstruction(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(dRaw%7) + 1
		m := randMatrix(r, n, n)
		a := m.Clone()
		a.Add(m.T()) // symmetric
		vals, vecs, err := EigenSym(a)
		if err != nil {
			return false
		}
		// VᵀV = I.
		vtv := vecs.T().Mul(vecs)
		if !vtv.Equal(Identity(n), 1e-7) {
			return false
		}
		// V diag(vals) Vᵀ = A.
		vd := vecs.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vd.Set(i, j, vd.At(i, j)*vals[j])
			}
		}
		recon := vd.Mul(vecs.T())
		return recon.Equal(a, 1e-6*(1+a.FrobeniusNorm()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Gershgorin bound dominates the true largest eigenvalue.
func TestPropertyGershgorinBound(t *testing.T) {
	f := func(seed int64, dRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(dRaw%7) + 1
		m := randMatrix(r, n, n)
		a := m.Clone()
		a.Add(m.T())
		vals, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		return MaxEigenvalueUpperBound(a) >= vals[n-1]-1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMulVecToBitIdenticalToRowDots pins the row-blocked kernel to the per-row
// form it replaced: every remainder class of Rows mod 4, and the column
// counts the solvers use (empty, sub-block, odd, the HAR dimension).
func TestMulVecToBitIdenticalToRowDots(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 101} {
		for _, cols := range []int{0, 1, 3, 562} {
			m := randMatrix(r, rows, cols)
			v := make(Vector, cols)
			for j := range v {
				v[j] = r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
			}
			got, viaRows := make(Vector, rows), make(Vector, rows)
			m.MulVecTo(got, v)
			DotRows(viaRows, v, m.Row)
			for i := 0; i < rows; i++ {
				want := m.Row(i).Dot(v)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%dx%d: MulVecTo row %d = %x, per-row Dot %x", rows, cols, i,
						math.Float64bits(got[i]), math.Float64bits(want))
				}
				if math.Float64bits(viaRows[i]) != math.Float64bits(want) {
					t.Fatalf("%dx%d: DotRows row %d = %x, per-row Dot %x", rows, cols, i,
						math.Float64bits(viaRows[i]), math.Float64bits(want))
				}
			}
		}
	}
}

// BenchmarkMulVecTo times MulVecTo, whose row sums run through dot4, against
// the same product on the Go dot4: a 300×300 Gram, dist-inproc's margins
// (100 rows of dimension 562), central-cut's late Gram columns (296 cuts) and
// shard-plane's device data (4 rows of dimension 32).
func BenchmarkMulVecTo(b *testing.B) {
	for _, shape := range []struct{ rows, cols int }{{300, 300}, {100, 562}, {296, 296}, {4, 32}} {
		r := rand.New(rand.NewSource(1))
		m := randMatrix(r, shape.rows, shape.cols)
		v, dst := make(Vector, shape.cols), make(Vector, shape.rows)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		name := fmt.Sprintf("%dx%d", shape.rows, shape.cols)
		b.Run(name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulVecTo(dst, v)
			}
		})
		b.Run(name+"/go", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mulVecGeneric(dst, m, v)
			}
		})
	}
}
