//go:build !purego

package qp

import "plos/internal/cpu"

// useAVX sends the passes to the kernels in kernels_amd64.s, else to their Go
// loops; both give the same bits. It is cpu.AVX, and only tests change it, to
// hold a whole solve on either path to the other.
var useAVX = cpu.AVX

func step(xNext, y, grad, c []float64, negStep float64) (sum float64, m int) {
	if useAVX {
		n := len(xNext)
		return stepAVX(xNext, y[:n], grad[:n], c[:n], negStep)
	}
	return stepGo(xNext, y, grad, c, negStep)
}

func support(z []float64, supp []int, vals []float64, theta float64, clamp bool) int {
	if useAVX {
		n := len(z)
		return supportAVX(z, supp[:n], vals[:n], theta, clamp)
	}
	return supportGo(z, supp, vals, theta, clamp)
}

func lastPass(z, y, x []float64, supp []int, vals []float64, theta float64, clamp bool, lip, beta float64) (k int, res, dot, ySum float64, yPos int) {
	if useAVX {
		n := len(z)
		return lastPassAVX(z, y[:n], x[:n], supp[:n], vals[:n], theta, clamp, lip, beta)
	}
	return lastPassGo(z, y, x, supp, vals, theta, clamp, lip, beta)
}

// stepAVX is stepGo on slices of one length.
//
//go:noescape
func stepAVX(xNext, y, grad, c []float64, negStep float64) (sum float64, m int)

// supportAVX is supportGo on slices of one length. It stores every entry at
// supp[k] and vals[k] and advances k past the non-zero ones, so supp[k] and
// vals[k] may end up holding a zero entry; the first k are supportGo's.
//
//go:noescape
func supportAVX(z []float64, supp []int, vals []float64, theta float64, clamp bool) (k int)

// lastPassAVX is lastPassGo on slices of one length, listing the support as
// supportAVX does.
//
//go:noescape
func lastPassAVX(z, y, x []float64, supp []int, vals []float64, theta float64, clamp bool, lip, beta float64) (k int, res, dot, ySum float64, yPos int)
