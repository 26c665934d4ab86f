package qp

import "math"

// Three passes of a FISTA iteration over its n-vectors. Each has a Go loop,
// below, which is the fallback and the oracle, and on amd64 an AVX kernel in
// kernels_amd64.s with the same arithmetic: one VMULPD or VSUBPD or
// VADDPD where the loop rounds one product, difference or sum, never a fused
// multiply-add, and every running sum taking one lane at a time in index
// order. A lane a loop's branch skips is added as +0, which leaves such a sum
// as it was: each starts at +0, and a round-to-nearest sum that starts at +0
// never reaches −0. Every product is rounded with an explicit float64(x*y),
// so no GOARCH fuses it into the following add.

// stepGo sets xNext = y + (−step)·(grad − c), negStep being −step, and
// returns the sum and count of xNext's positives.
func stepGo(xNext, y, grad, c []float64, negStep float64) (sum float64, m int) {
	y, grad, c = y[:len(xNext)], grad[:len(xNext)], c[:len(xNext)]
	for i := range xNext {
		v := y[i] + float64(negStep*(grad[i]-c[i]))
		xNext[i] = v
		if v > 0 {
			sum += v
			m++
		}
	}
	return sum, m
}

// shift is one entry of a projection at threshold θ: v − θ where that is
// positive, else +0. With clamp it is ProjectNonneg's entry instead, which
// keeps −0 and NaN.
func shift(v, theta float64, clamp bool) float64 {
	if clamp && !(v < 0) {
		return v
	}
	if !clamp && v-theta > 0 {
		return v - theta
	}
	return 0
}

// supportGo shifts z in place by (theta, clamp), lists its non-zero entries
// (NaN among them) and their indices in vals and supp, which hold at least
// len(z) entries, and returns how many it listed.
func supportGo(z []float64, supp []int, vals []float64, theta float64, clamp bool) (k int) {
	for i, v := range z {
		v = shift(v, theta, clamp)
		z[i] = v
		if v != 0 {
			supp[k], vals[k] = i, v
			k++
		}
	}
	return k
}

// lastPassGo is supportGo for the step z from y, x the iterate before it: it
// also returns the residual max |z_i − y_i|·lip (a NaN term skipped), the
// restart dot Σ (y_i − z_i)(z_i − x_i), and overwrites y with the
// extrapolation z + β(z − x), returning the sum and count of its positives.
func lastPassGo(z, y, x []float64, supp []int, vals []float64, theta float64, clamp bool, lip, beta float64) (k int, res, dot, ySum float64, yPos int) {
	y, x = y[:len(z)], x[:len(z)]
	for i, v := range z {
		v = shift(v, theta, clamp)
		z[i] = v
		yi, xi := y[i], x[i]
		if d := math.Abs(v-yi) * lip; d > res {
			res = d
		}
		dot += float64((yi - v) * (v - xi))
		e := v + float64(beta*(v-xi))
		y[i] = e
		if e > 0 {
			ySum += e
			yPos++
		}
		if v != 0 {
			supp[k], vals[k] = i, v
			k++
		}
	}
	return k, res, dot, ySum, yPos
}
