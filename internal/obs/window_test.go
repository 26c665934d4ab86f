package obs

import (
	"sync"
	"testing"
	"time"
)

// t0 is an arbitrary fixed base time so window tests are deterministic.
var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func TestRateWindowSumAndExpiry(t *testing.T) {
	w := NewRateWindow(10*time.Second, time.Second)
	w.Add(t0, 3)
	w.Add(t0.Add(2*time.Second), 4)
	if got := w.Sum(t0.Add(2 * time.Second)); got != 7 {
		t.Fatalf("Sum = %v, want 7", got)
	}
	// 11s after the first add, its bucket has rolled out of the window.
	if got := w.Sum(t0.Add(11 * time.Second)); got != 4 {
		t.Fatalf("Sum after expiry = %v, want 4", got)
	}
	// Far future: everything expired.
	if got := w.Sum(t0.Add(time.Hour)); got != 0 {
		t.Fatalf("Sum far future = %v, want 0", got)
	}
}

func TestRateWindowRate(t *testing.T) {
	w := NewRateWindow(10*time.Second, time.Second)
	w.Add(t0, 20)
	if got := w.Rate(t0); got != 2 {
		t.Fatalf("Rate = %v, want 2 (20 over a 10s window)", got)
	}
}

func TestRateWindowObserveTotal(t *testing.T) {
	w := NewRateWindow(10*time.Second, time.Second)
	w.ObserveTotal(t0, 100) // arms the baseline only
	if got := w.Sum(t0); got != 0 {
		t.Fatalf("Sum after baseline = %v, want 0", got)
	}
	w.ObserveTotal(t0.Add(time.Second), 105)
	w.ObserveTotal(t0.Add(2*time.Second), 107)
	if got := w.Sum(t0.Add(2 * time.Second)); got != 7 {
		t.Fatalf("Sum of deltas = %v, want 7", got)
	}
	// Counter reset re-arms instead of adding a negative delta.
	w.ObserveTotal(t0.Add(3*time.Second), 1)
	if got := w.Sum(t0.Add(3 * time.Second)); got != 7 {
		t.Fatalf("Sum after reset = %v, want 7", got)
	}
	w.ObserveTotal(t0.Add(4*time.Second), 2)
	if got := w.Sum(t0.Add(4 * time.Second)); got != 8 {
		t.Fatalf("Sum after re-arm = %v, want 8", got)
	}
}

func TestRateWindowBuckets(t *testing.T) {
	w := NewRateWindow(5*time.Second, time.Second)
	w.Add(t0, 1)
	w.Add(t0.Add(2*time.Second), 3)
	got := w.Buckets(t0.Add(4 * time.Second))
	if len(got) != 5 {
		t.Fatalf("len(Buckets) = %d, want 5", len(got))
	}
	// Oldest-first: bucket of t0 is index 0, t0+2s is index 2.
	want := []float64{1, 0, 3, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Buckets = %v, want %v", got, want)
		}
	}
}

func TestRateWindowNil(t *testing.T) {
	var w *RateWindow
	w.Add(t0, 1)
	w.ObserveTotal(t0, 1)
	if w.Sum(t0) != 0 || w.Rate(t0) != 0 || w.Buckets(t0) != nil {
		t.Fatal("nil RateWindow must report zeros")
	}
}

func TestWindowConcurrency(t *testing.T) {
	w := NewRateWindow(5*time.Second, time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				now := t0.Add(time.Duration(i) * 10 * time.Millisecond)
				w.Add(now, 1)
				_ = w.Sum(now)
			}
		}()
	}
	wg.Wait()
	if got := w.Sum(t0.Add(4990 * time.Millisecond)); got != 8*500 {
		t.Fatalf("concurrent Sum = %v, want 4000", got)
	}
}
