package mat

import "fmt"

// AddScaledRows sets dst += Σ_k coef[k]·m.Row(idx[k]), k ascending: a
// multi-row axpy over rows of one matrix, in any order and with repeats.
//
// Each dst[j] keeps its own chain, dst[j] + coef[0]·row0[j] + coef[1]·row1[j]
// + …, every product and every sum rounded once, exactly as successive
// dst.AddScaled(coef[k], m.Row(idx[k])) calls leave it: bit for bit for every
// input with no NaN, and NaN where they leave NaN. On amd64 with AVX the
// chains run in YMM lanes, one element per lane, 32 elements per pass held in
// eight registers across a tile of idx, and the fewer than 32 left in one
// more pass under lane masks; elsewhere a plain loop computes the same sums,
// each product rounded on its own, as on amd64.
//
// dst must have length m.Cols, coef the length of idx, and every index must
// be a row of m; a mismatch panics before any arithmetic.
func AddScaledRows(dst Vector, m *Matrix, idx []int, coef []float64) {
	checkLen("AddScaledRows dst", len(dst), m.Cols)
	checkLen("AddScaledRows coef", len(coef), len(idx))
	if len(m.Data) < m.Rows*m.Cols {
		panic(fmt.Sprintf("mat: AddScaledRows: %d entries for a %dx%d matrix", len(m.Data), m.Rows, m.Cols))
	}
	for _, i := range idx {
		if uint(i) >= uint(m.Rows) {
			panic(fmt.Sprintf("mat: AddScaledRows: row %d out of range [0, %d)", i, m.Rows))
		}
	}
	addScaledRows(dst, m.Data, m.Cols, idx, coef)
}

// addScaledRowsGeneric is the kernel in Go: the fallback without AVX (or
// built with the purego tag) and the oracle the assembly is tested against.
// Arguments are AddScaledRows's, already checked; row i starts at
// data[i*stride].
func addScaledRowsGeneric(dst, data []float64, stride int, idx []int, coef []float64) {
	for k, i := range idx {
		a, row := coef[k], data[i*stride:i*stride+len(dst)]
		for j := range dst {
			dst[j] += float64(a * row[j])
		}
	}
}

// AddRowBlocks sets dst += Σ_i coef[i]·m.Row(i), coef of length m.Rows, four
// rows per pass: for each block of rows i…i+3 whose coefficients are not all
// zero, every dst[j] gains ((c_i·r_i[j] + c_{i+1}·r_{i+1}[j]) +
// c_{i+2}·r_{i+2}[j]) + c_{i+3}·r_{i+3}[j], each product and each sum rounded
// once; the rows past the last whole block follow one at a time, as AddScaled,
// where their coefficient is not zero. dst is read and written once per four
// rows. On amd64 with AVX the block runs four elements per lane vector;
// elsewhere a Go loop computes the same sums.
func AddRowBlocks(dst Vector, m *Matrix, coef Vector) {
	checkLen("AddRowBlocks dst", len(dst), m.Cols)
	checkLen("AddRowBlocks coef", len(coef), m.Rows)
	i := 0
	for ; i+4 <= len(coef); i += 4 {
		c := [4]float64{coef[i], coef[i+1], coef[i+2], coef[i+3]}
		if c == [4]float64{} {
			continue
		}
		r := [4][]float64{m.Row(i), m.Row(i + 1), m.Row(i + 2), m.Row(i + 3)}
		addRows4(dst, &r, &c)
	}
	for ; i < len(coef); i++ {
		if coef[i] != 0 {
			dst.AddScaled(coef[i], m.Row(i))
		}
	}
}

// addRows4Generic is addRows4's kernel in Go: the fallback without AVX and
// the oracle the assembly is tested against. Every row holds at least
// len(dst) elements.
func addRows4Generic(dst []float64, r *[4][]float64, c *[4]float64) {
	r0, r1, r2, r3 := r[0][:len(dst)], r[1][:len(dst)], r[2][:len(dst)], r[3][:len(dst)]
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for j := range dst {
		dst[j] += float64(c0*r0[j]) + float64(c1*r1[j]) + float64(c2*r2[j]) + float64(c3*r3[j])
	}
}
