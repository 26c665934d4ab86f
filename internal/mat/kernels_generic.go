//go:build !amd64 || purego

package mat

func addScaledRows(dst, data []float64, stride int, idx []int, coef []float64) {
	addScaledRowsGeneric(dst, data, stride, idx, coef)
}

func dot4(v, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	return dot4Generic(v, r0, r1, r2, r3)
}

func dot4x4(dst *[16]float64, v, r *[4][]float64) { dot4x4Generic(dst, v, r) }

func addRows4(dst []float64, r *[4][]float64, c *[4]float64) { addRows4Generic(dst, r, c) }
