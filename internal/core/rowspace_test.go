package core

import (
	"fmt"
	"math"
	"testing"

	"plos/internal/mat"
	"plos/internal/optimize"
	"plos/internal/rng"
)

// newWorkerIn is NewWorker with the cut space forced: the row space when row
// is set, the feature space otherwise, whatever the data's shape.
func newWorkerIn(tb testing.TB, data UserData, totalUsers int, cfg Config, row bool) *Worker {
	tb.Helper()
	wk, err := NewWorker(data, totalUsers, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	wk.inSpace(row)
	return wk
}

// modeTwins is one worker per cut space over the same data and config.
type modeTwins struct{ feat, row *Worker }

func newModeTwins(tb testing.TB, data UserData, totalUsers int, cfg Config) modeTwins {
	return modeTwins{newWorkerIn(tb, data, totalUsers, cfg, false), newWorkerIn(tb, data, totalUsers, cfg, true)}
}

// refresh starts a CCCP round on both twins; they must flip the same labels.
func (tw modeTwins) refresh(tb testing.TB, w0 mat.Vector) {
	tb.Helper()
	if f, r := tw.feat.RefreshSigns(w0), tw.row.RefreshSigns(w0); f != r {
		tb.Fatalf("sign refresh flipped %d labels in the feature space, %d in the row space", f, r)
	}
}

// solve runs one Solve on both twins and holds the row space to the feature
// space: the same working-set keys in the same order, and w, v and ξ within
// tol of the feature space's, relative to the magnitude of the terms they are
// made of — ‖w‖∞ for w and v = ρ/(a+ρ)·(w − b), and max(1, ξ) for ξ, a
// difference of sums of weights no larger than Cl. When the keys part it
// returns false before comparing anything else; tied tells a fuzzer whether a
// margin tie explains it.
func (tw modeTwins) solve(tb testing.TB, w0, u mat.Vector, rho, tol float64, step string) bool {
	tb.Helper()
	wf, vf, xif, err := tw.feat.Solve(w0, u, rho)
	if err != nil {
		tb.Fatalf("%s: feature space: %v", step, err)
	}
	wr, vr, xir, err := tw.row.Solve(w0, u, rho)
	if err != nil {
		tb.Fatalf("%s: row space: %v", step, err)
	}
	cf, cr := tw.feat.set.Constraints(), tw.row.set.Constraints()
	if len(cf) != len(cr) {
		return false
	}
	for k := range cf {
		if cf[k].Key != cr[k].Key {
			return false
		}
	}
	scale := maxDiff(wf, make(mat.Vector, len(wf))) // ‖wf‖∞
	if d := maxDiff(wr, wf); !(d <= tol*scale) {
		tb.Fatalf("%s: w differs by %.3g, ‖w‖∞ = %.3g", step, d, scale)
	}
	if d := maxDiff(vr, vf); !(d <= tol*scale) {
		tb.Fatalf("%s: v differs by %.3g, ‖w‖∞ = %.3g", step, d, scale)
	}
	if d := math.Abs(xir - xif); !(d <= tol*math.Max(1, xif)) {
		tb.Fatalf("%s: ξ %v in the row space, %v in the feature space", step, xir, xif)
	}
	return true
}

// tied reports whether a weighted sample sits on the margin at the feature
// twin's w: eff_i·(x_i·w) within tol of 1, where rounding alone decides
// whether the sample joins a cut, so the two spaces may select differently.
func (tw modeTwins) tied(tol float64) bool {
	wk := tw.feat
	for i, margin := range wk.data.X.MulVec(wk.w) {
		if wk.weights[i] != 0 && math.Abs(wk.signs[i]*margin-1) <= tol {
			return true
		}
	}
	return false
}

// maxDiff is ‖a − b‖∞, NaN when either holds one (mat.Vector.Equal would let
// a NaN pass).
func maxDiff(a, b mat.Vector) float64 {
	var d float64
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// TestWorkerRowSpaceMatchesFeatureSpace: a worker with fewer rows than
// features works in the row space, and through sign refreshes and solves
// against a moving u it selects the cuts the feature space selects, in the
// same order, and returns its w, v and ξ to rounding.
func TestWorkerRowSpaceMatchesFeatureSpace(t *testing.T) {
	for _, shape := range [][2]int{{12, 121}, {12, 562}, {100, 562}} {
		m, d := shape[0], shape[1]
		t.Run(fmt.Sprintf("%dx%d", m, d), func(t *testing.T) {
			data := shapeUser(t, m, d, int64(m*d))
			cfg := Config{Seed: 3, MaxCutIter: 5, QPMaxIter: 200}
			wk, err := NewWorker(data, 8, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, row := wk.space.(*rowSpace); !row {
				t.Fatalf("NewWorker keeps a %d×%d worker in the feature space", m, d)
			}
			tw := newModeTwins(t, data, 8, cfg)
			w0, _ := LocalInit(data, cfg)
			g := rng.New(int64(d))
			u := mat.NewVector(d)
			for cccp := 0; cccp < 3; cccp++ {
				tw.refresh(t, w0)
				for s := 0; s < 10; s++ {
					u.AddScaled(0.02, g.NormVector(d))
					if step := fmt.Sprintf("CCCP %d solve %d", cccp, s); !tw.solve(t, w0, u, 1, 1e-9, step) {
						t.Fatalf("%s: the working sets part", step)
					}
				}
				if tw.row.set.Len() < 2 {
					t.Fatalf("CCCP %d: %d cuts, too few to compare the Grams", cccp, tw.row.set.Len())
				}
			}
		})
	}
}

// FuzzWorkerModes runs both cut spaces over small random workers with fewer
// rows than features: any label count, the unlabeled term on or off (off
// gives every unlabeled row a zero weight) and any penalty ρ. A few rows often
// put one exactly on the margin — a one-sample cut with an interior dual pins
// its margin at 1 — and then rounding picks the subset, so each Solve runs a
// single cut round: a parting is checked against the point that selected it,
// and only a tie there may end the comparison.
func FuzzWorkerModes(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(10), uint8(2), false, 1.0)
	f.Add(int64(2), uint8(11), uint8(3), uint8(0), true, 0.05)
	f.Add(int64(3), uint8(1), uint8(0), uint8(1), false, 40.0)
	f.Add(int64(4), uint8(7), uint8(25), uint8(7), true, 3.0)
	f.Fuzz(func(t *testing.T, seed int64, rows, extra, labeled uint8, cuOff bool, rho float64) {
		m := 1 + int(rows)%12
		d := m + 1 + int(extra)%30
		rho = math.Abs(rho)
		if !(rho >= 0.01 && rho <= 100) {
			rho = 1
		}
		g := rng.New(seed)
		x := mat.NewMatrix(m, d)
		for i := 0; i < m; i++ {
			row := x.Row(i)
			copy(row, g.NormVector(d))
			row[0] += float64(1 - 2*(i%2))
		}
		y := make([]float64, int(labeled)%(m+1))
		for i := range y {
			y[i] = float64(1 - 2*(i%2))
		}
		cfg := Config{Seed: seed, MaxCutIter: 1}
		if cuOff {
			cfg.Cu = -1
		}
		data := UserData{X: x, Y: y}
		tw := newModeTwins(t, data, 3, cfg)
		w0, _ := LocalInit(data, cfg)
		u := mat.NewVector(d)
		for cccp := 0; cccp < 2; cccp++ {
			tw.refresh(t, w0)
			for s := 0; s < 12; s++ {
				u.AddScaled(0.05, g.NormVector(d))
				if step := fmt.Sprintf("CCCP %d solve %d", cccp, s); !tw.solve(t, w0, u, rho, 1e-9, step) {
					if !tw.tied(1e-9) {
						t.Fatalf("%s: the working sets part with no sample on the margin", step)
					}
					return
				}
			}
		}
	})
}

// Worker.Solve's ξ is the slack of its final working set at its final point,
// bit for bit, in either cut space: when the loop ends on a round that added
// no cut (that round's slack is returned) and when it runs out of rounds
// right after adding one (the slack is read again).
func TestWorkerSolveSlackIsFinal(t *testing.T) {
	for _, shape := range workerShapes {
		for _, maxCut := range []int{1, 2, 50} {
			t.Run(fmt.Sprintf("%s/MaxCutIter=%d", shape.name, maxCut), func(t *testing.T) {
				data := shape.data(t)
				cfg := Config{Seed: 3, MaxCutIter: maxCut, QPMaxIter: 200, Epsilon: 1e-9}
				wk, err := NewWorker(data, 4, cfg)
				if err != nil {
					t.Fatal(err)
				}
				w0, _ := LocalInit(data, cfg)
				wk.RefreshSigns(w0)
				d := len(w0)
				u := mat.NewVector(d)
				g := rng.New(5)
				settled, ranOut := 0, 0
				for s := 0; s < 12; s++ {
					before := wk.set.Len()
					_, _, xi, err := wk.Solve(w0, u, 1)
					if err != nil {
						t.Fatal(err)
					}
					point := wk.w
					if rs, ok := wk.space.(*rowSpace); ok {
						point = rs.margins
					}
					if fresh := optimize.Slack(&wk.set, point); math.Float64bits(xi) != math.Float64bits(fresh) {
						t.Fatalf("solve %d: ξ = %v, the final set's slack at the final point is %v", s, xi, fresh)
					}
					switch rounds := int(wk.stats.Cuts); {
					case rounds < maxCut:
						settled++
					case wk.set.Len()-before == rounds:
						ranOut++
					}
					u.AddScaled(0.05, g.NormVector(d))
				}
				if maxCut == 1 && ranOut == 0 || maxCut == 50 && settled == 0 {
					t.Fatalf("%d solves ended on a round without a cut, %d ran out after one: the exit under test never ran", settled, ranOut)
				}
			})
		}
	}
}
