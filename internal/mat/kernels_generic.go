//go:build !amd64 || purego

package mat

func addScaledRows(dst, data []float64, stride int, idx []int, coef []float64) {
	addScaledRowsGeneric(dst, data, stride, idx, coef)
}

func dot4(v, r0, r1, r2, r3 []float64) (s0, s1, s2, s3 float64) {
	return dot4Generic(v, r0, r1, r2, r3)
}
