package core

import (
	"plos/internal/mat"
)

// LocalInit computes a user's device-side contribution to the federated
// CCCP initialization: a hyperplane trained purely on local data, plus the
// weight it should carry in the server-side average.
//
// A user whose labeled prefix contains both classes returns a strongly
// regularized local ridge hyperplane (see initialW0 for why ridge, not
// max-margin) weighted by the labeled count; any other user returns its
// dominant local variance axis with weight zero (used by the server only
// when no user has usable labels). No raw data leaves the device either
// way — this mirrors how the paper's distributed design keeps Algorithm 2's
// unspecified w0^(0) initialization privacy-preserving.
func LocalInit(u UserData, cfg Config) (mat.Vector, float64) {
	cfg = cfg.WithDefaults()
	lt := u.NumLabeled()
	var pos, neg bool
	for _, y := range u.Y {
		if y > 0 {
			pos = true
		} else {
			neg = true
		}
	}
	if pos && neg {
		// The labeled prefix, viewed in place: ridgeToward only reads it.
		x := &mat.Matrix{Rows: lt, Cols: u.X.Cols, Data: u.X.Data[:lt*u.X.Cols]}
		if w, err := ridgeToward(x, u.Y); err == nil {
			return w, float64(lt)
		}
	}
	// Variance-axis fallback, unit length.
	dim := u.X.Cols
	mean := mat.NewVector(dim)
	for i := 0; i < u.X.Rows; i++ {
		mean.Add(u.X.Row(i))
	}
	mean.Scale(1 / float64(u.X.Rows))
	variance := mat.NewVector(dim)
	for i := 0; i < u.X.Rows; i++ {
		row := u.X.Row(i)
		for j := 0; j < dim; j++ {
			d := row[j] - mean[j]
			variance[j] += float64(d * d)
		}
	}
	_, j := variance.Max()
	w := mat.NewVector(dim)
	if j >= 0 {
		w[j] = 1
	}
	return w, 0
}
