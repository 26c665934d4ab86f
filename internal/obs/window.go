package obs

import (
	"sync"
	"time"
)

// Windowed observation: the cumulative registry answers "what happened since
// the process started"; RateWindow answers "what is happening right now". It
// is a ring of epoch-stamped buckets — a bucket is reused the first time it
// is touched in a new epoch, so expiry costs nothing and the ring never
// allocates after construction. It is fed off the hot paths (ticker-sampled
// counter deltas), takes an explicit clock, and is safe for concurrent use.

// RateWindow accumulates values into a ring of time buckets and reports the
// sum (or per-second rate) over the most recent window. A nil *RateWindow
// no-ops, like every other obs handle.
type RateWindow struct {
	mu      sync.Mutex
	bucket  time.Duration
	buckets []float64
	epochs  []int64
	// lastTotal supports ObserveTotal: feeding a cumulative counter turns
	// into adding its delta since the previous observation.
	lastTotal float64
	haveTotal bool
}

// NewRateWindow creates a window of the given span split into buckets of
// the given width (both floored to at least one second total / 100ms per
// bucket).
func NewRateWindow(window, bucket time.Duration) *RateWindow {
	if bucket < 100*time.Millisecond {
		bucket = 100 * time.Millisecond
	}
	if window < bucket {
		window = bucket
	}
	n := int((window + bucket - 1) / bucket)
	return &RateWindow{
		bucket:  bucket,
		buckets: make([]float64, n),
		epochs:  make([]int64, n),
	}
}

// epoch maps a wall time to a bucket epoch number.
func (w *RateWindow) epoch(now time.Time) int64 {
	return now.UnixNano() / int64(w.bucket)
}

// Add accumulates v into the bucket owning now.
func (w *RateWindow) Add(now time.Time, v float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.epoch(now)
	i := int(e % int64(len(w.buckets)))
	if w.epochs[i] != e {
		w.epochs[i] = e
		w.buckets[i] = 0
	}
	w.buckets[i] += v
}

// ObserveTotal feeds a cumulative counter: the delta since the previous
// ObserveTotal is added to the current bucket (the first call only arms the
// baseline). A counter reset (total moving backwards) re-arms instead of
// adding a negative spike.
func (w *RateWindow) ObserveTotal(now time.Time, total float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	prev, had := w.lastTotal, w.haveTotal
	w.lastTotal, w.haveTotal = total, true
	w.mu.Unlock()
	if had && total >= prev {
		w.Add(now, total-prev)
	}
}

// Sum returns the total accumulated over the live window ending at now.
func (w *RateWindow) Sum(now time.Time) float64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.epoch(now)
	min := e - int64(len(w.buckets)) + 1
	var sum float64
	for i, be := range w.epochs {
		if be >= min && be <= e {
			sum += w.buckets[i]
		}
	}
	return sum
}

// Rate is Sum divided by the window span, in events per second.
func (w *RateWindow) Rate(now time.Time) float64 {
	if w == nil {
		return 0
	}
	return w.Sum(now) / (float64(len(w.buckets)) * w.bucket.Seconds())
}

// Buckets returns the live window's per-bucket sums, oldest first (zeros
// for buckets with no observations) — the sparkline feed.
func (w *RateWindow) Buckets(now time.Time) []float64 {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	n := int64(len(w.buckets))
	e := w.epoch(now)
	out := make([]float64, n)
	for k := int64(0); k < n; k++ {
		be := e - n + 1 + k
		i := int(((be % n) + n) % n)
		if w.epochs[i] == be {
			out[k] = w.buckets[i]
		}
	}
	return out
}
