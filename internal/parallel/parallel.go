package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"plos/internal/obs"
)

// poolMetrics is the package's observation hook. For/Do/Map signatures are
// pure (workers, n, fn) at dozens of call sites across the solvers, so the
// pool is the one place where instrumentation rides on process-global state
// rather than a threaded registry; SetMetrics installs the bundle (typically
// once, by whoever owns the obs.Registry) and nil uninstalls it. The default
// is nil — an unobserved pool pays one atomic pointer load per batch.
var poolMetrics atomic.Pointer[obs.PoolMetrics]

// SetMetrics installs (or, with nil, removes) the pool's metric bundle.
// Safe to call concurrently with running batches: a batch uses the bundle it
// loaded at start.
func SetMetrics(m *obs.PoolMetrics) { poolMetrics.Store(m) }

// Workers resolves a configured worker count: non-positive values select
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines. The first error (lowest index among the iterations that ran
// before cancellation) stops the pool: no new iterations start, and that
// error is returned. A panic in fn is re-raised on the calling goroutine.
//
// With workers == 1 the loop is strictly sequential — identical evaluation
// order and short-circuiting to the plain for-loop it replaces.
func For(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	m := poolMetrics.Load()
	if m != nil {
		m.Batches.Inc()
		m.Tasks.Add(int64(n))
		m.QueueDepth.Set(float64(n))
		defer m.QueueDepth.Set(0)
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		if m != nil {
			m.WorkerBusy.Observe(time.Since(start).Seconds())
		}
		return nil
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		panicMu sync.Mutex
		panicV  any
		errs    = make([]error, n)
		wg      sync.WaitGroup
	)
	body := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicV == nil {
					panicV = r
				}
				panicMu.Unlock()
				stopped.Store(true)
			}
		}()
		if err := fn(i); err != nil {
			errs[i] = err
			stopped.Store(true)
		}
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			var start time.Time
			if m != nil {
				start = time.Now()
				defer func() { m.WorkerBusy.Observe(time.Since(start).Seconds()) }()
			}
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Do is For without error plumbing, for loop bodies that cannot fail
// (e.g. filling disjoint rows of a matrix).
func Do(workers, n int, fn func(i int)) {
	_ = For(workers, n, func(i int) error {
		fn(i)
		return nil
	})
}

// Blocks splits [0, n) into min(Workers(workers), n) contiguous blocks of
// near-equal length and runs fn(lo, hi) once per block on the pool. It suits
// iterations of equal cost that each need scratch: fn makes it once per
// block (a stream re-seeded per index, a buffer) rather than once per index.
// With workers == 1 it is the single call fn(0, n).
func Blocks(workers, n int, fn func(lo, hi int)) {
	w := Workers(workers)
	if w > n {
		w = n
	}
	Do(w, w, func(b int) { fn(b*n/w, (b+1)*n/w) })
}

// Map runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and collects the results in index order: out[i] is fn(i)'s
// value no matter which goroutine computed it or when it finished, so any
// subsequent fold over out is deterministic. On error the first (lowest
// index) error is returned with a nil slice.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := For(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
