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
// eight registers across a tile of idx; elsewhere a plain loop computes the
// same sums, each product rounded on its own, as on amd64.
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
