//go:build !amd64 || purego

package qp

func step(xNext, y, grad, c []float64, negStep float64) (sum float64, m int) {
	return stepGo(xNext, y, grad, c, negStep)
}

func support(z []float64, supp []int, vals []float64, theta float64, clamp bool) int {
	return supportGo(z, supp, vals, theta, clamp)
}

func lastPass(z, y, x []float64, supp []int, vals []float64, theta float64, clamp bool, lip, beta float64) (k int, res, dot, ySum float64, yPos int) {
	return lastPassGo(z, y, x, supp, vals, theta, clamp, lip, beta)
}
