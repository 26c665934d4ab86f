package core

import (
	"math"
	"runtime"
	"testing"

	"plos/internal/mat"
	"plos/internal/rng"
)

func TestLocalInitWithLabels(t *testing.T) {
	u, _ := synthUser(rng.New(1), 15, 10, 0)
	w, weight := LocalInit(u, Config{})
	if weight != 10 {
		t.Errorf("weight = %v, want labeled count 10", weight)
	}
	if len(w) != 2 {
		t.Fatalf("dim = %d", len(w))
	}
	// The ridge direction must point toward the +1 class at (4,4).
	if w.Dot(mat.Vector{4, 4}) <= 0 {
		t.Errorf("init direction inverted: %v", w)
	}
}

func TestLocalInitSingleClassFallsBack(t *testing.T) {
	u, _ := synthUser(rng.New(2), 10, 0, 0)
	u.Y = []float64{1, 1} // single class → variance-axis fallback
	w, weight := LocalInit(u, Config{})
	if weight != 0 {
		t.Errorf("single-class weight = %v, want 0", weight)
	}
	if math.Abs(w.Norm2()-1) > 1e-9 {
		t.Errorf("fallback axis should be unit length: %v", w.Norm2())
	}
}

func TestLocalInitNoLabels(t *testing.T) {
	u, _ := synthUser(rng.New(3), 10, 0, 0)
	w, weight := LocalInit(u, Config{})
	if weight != 0 || w.Norm2() == 0 {
		t.Errorf("no-label init: w=%v weight=%v", w, weight)
	}
}

func TestRidgeTowardRobustToFlippedLabel(t *testing.T) {
	// Six points, one flipped deep in the wrong class: the ridge direction
	// must keep the true polarity (the property that motivated replacing
	// the SVM init — see DESIGN.md §6).
	x := mat.FromRows([][]float64{
		{4, 4}, {5, 3}, {-4, -4}, {-5, -3}, {-4, -5},
		{-4.5, -4.5}, // actually negative-region...
	})
	y := []float64{1, 1, -1, -1, -1, 1} // last label flipped
	w, err := ridgeToward(x, y)
	if err != nil {
		t.Fatalf("ridgeToward: %v", err)
	}
	if w.Dot(mat.Vector{4, 4}) <= 0 {
		t.Errorf("flipped label inverted the ridge direction: %v", w)
	}
}

// A labeled row that makes the ridge system unsolvable (NaN pivots) must
// not surface: LocalInit falls through to the variance axis, weight zero.
func TestLocalInitSolveErrorFallsBack(t *testing.T) {
	for _, dim := range []int{2, 40} { // d×d form and small-dimension form
		x, y := ridgeProblem(5, 12, dim)
		x.Set(1, 0, math.NaN())
		w, weight := LocalInit(UserData{X: x, Y: y[:3]}, Config{})
		if weight != 0 {
			t.Errorf("dim %d: weight = %v, want 0 after a failed solve", dim, weight)
		}
		nonzero := 0
		for _, x := range w {
			if x != 0 {
				nonzero++
			}
		}
		if nonzero != 1 || w.Norm2() != 1 {
			t.Errorf("dim %d: fallback is not a coordinate axis: %v", dim, w)
		}
	}
}

// A phone joining with 3 labels in the HAR feature width works in 3×3, not
// 562×562: the whole call stays under 64 KB of heap (the d×d form took 5 MB).
func TestLocalInitSmallDeviceAllocatesLittle(t *testing.T) {
	x, y := ridgeProblem(6, 12, 562)
	u := UserData{X: x, Y: y[:3]}
	var before, after runtime.MemStats
	const runs = 10
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, weight := LocalInit(u, Config{}); weight != 3 {
			t.Fatalf("weight = %v, want 3", weight)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("LocalInit allocated %d B per call, want < 64 KB", per)
	}
}

var sinkInit mat.Vector

func BenchmarkLocalInit(b *testing.B) {
	for _, c := range []struct {
		name          string
		rows, labeled int
	}{
		{"12x562", 12, 3},
		{"600x562", 600, 600},
	} {
		x, y := ridgeProblem(7, c.rows, 562)
		u := UserData{X: x, Y: y[:c.labeled]}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkInit, _ = LocalInit(u, Config{})
			}
		})
	}
}
