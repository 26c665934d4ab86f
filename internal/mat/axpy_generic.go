//go:build !amd64

package mat

func addScaledRows(dst, data []float64, stride int, idx []int, coef []float64) {
	addScaledRowsGeneric(dst, data, stride, idx, coef)
}
