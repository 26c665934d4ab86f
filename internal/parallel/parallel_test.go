package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

// TestMapIndexOrdered is the determinism property the training hot paths
// rely on: Map's output is a pure function of (n, fn), independent of the
// worker count and of scheduling.
func TestMapIndexOrdered(t *testing.T) {
	const n = 257
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i)*1.25 - 3
	}
	for _, workers := range []int{1, 2, 3, 8, 64, 0} {
		got, err := Map(workers, n, func(i int) (float64, error) {
			return float64(i)*1.25 - 3, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %g, want %g", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 4, 33, 0} {
		counts := make([]atomic.Int32, n)
		if err := For(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForFirstErrorWins(t *testing.T) {
	errBoom := errors.New("boom")
	// Sequential: short-circuits at the first failing index.
	ran := 0
	err := For(1, 10, func(i int) error {
		ran++
		if i >= 3 {
			return fmt.Errorf("index %d: %w", i, errBoom)
		}
		return nil
	})
	if !errors.Is(err, errBoom) || err.Error() != "index 3: boom" {
		t.Fatalf("sequential error = %v", err)
	}
	if ran != 4 {
		t.Fatalf("sequential ran %d iterations, want 4", ran)
	}
	// Parallel: the reported error is the lowest-index failure among the
	// iterations that ran, and the pool stops claiming new work.
	var parRan atomic.Int32
	err = For(8, 1000, func(i int) error {
		parRan.Add(1)
		if i%7 == 5 {
			return fmt.Errorf("index %d: %w", i, errBoom)
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("parallel error = %v", err)
	}
	if n := parRan.Load(); n >= 1000 {
		t.Fatalf("pool did not stop early: ran all %d iterations", n)
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "kaboom" {
					t.Fatalf("workers=%d: recovered %v, want kaboom", workers, r)
				}
			}()
			_ = For(workers, 50, func(i int) error {
				if i == 17 {
					panic("kaboom")
				}
				return nil
			})
			t.Fatalf("workers=%d: no panic surfaced", workers)
		}()
	}
}

func TestForBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	err := For(workers, 200, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent iterations, want <= %d", p, workers)
	}
}

// Blocks tiles [0, n) exactly: every index lies in one block, the blocks
// are contiguous and ascending in their own index, and there are no more
// blocks than workers or indices.
func TestBlocksTileTheRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, workers := range []int{1, 2, 3, 8, 0} {
			var calls atomic.Int32
			counts := make([]atomic.Int32, n)
			Blocks(workers, n, func(lo, hi int) {
				calls.Add(1)
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty block [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					counts[i].Add(1)
				}
			})
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d in %d blocks", n, workers, i, c)
				}
			}
			if c, w := int(calls.Load()), min(Workers(workers), n); c != w {
				t.Fatalf("n=%d workers=%d: %d blocks, want %d", n, workers, c, w)
			}
		}
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	if err := For(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
	out, err := Map(4, -1, func(int) (int, error) { return 0, errors.New("must not run") })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(n=-1) = %v, %v", out, err)
	}
}

// FuzzMapMatchesSequential pins the substrate's core property under
// arbitrary shapes: for any (workers, n), Map equals the plain sequential
// loop element-for-element.
func FuzzMapMatchesSequential(f *testing.F) {
	f.Add(int8(0), uint16(0))
	f.Add(int8(1), uint16(1))
	f.Add(int8(4), uint16(100))
	f.Add(int8(-2), uint16(513))
	f.Add(int8(16), uint16(7))
	f.Fuzz(func(t *testing.T, workers int8, n uint16) {
		size := int(n % 2048)
		fn := func(i int) (uint64, error) {
			return uint64(i)*2654435761 ^ uint64(i)>>3, nil
		}
		want := make([]uint64, size)
		for i := range want {
			want[i], _ = fn(i)
		}
		got, err := Map(int(workers), size, fn)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != size {
			t.Fatalf("len = %d, want %d", len(got), size)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d n=%d: out[%d] = %d, want %d", workers, size, i, got[i], want[i])
			}
		}
	})
}
