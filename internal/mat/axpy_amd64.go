package mat

// addScaledRows is AddScaledRows's kernel in SSE2 (axpy_amd64.s), on
// arguments AddScaledRows has checked: each step is MULPD then ADDPD, never
// a fused multiply-add, so every lane rounds as the scalar AddScaled does.
//
//go:noescape
func addScaledRows(dst, data []float64, stride int, idx []int, coef []float64)
