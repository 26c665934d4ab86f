//go:build !goexperiment.synctest

package protocol

import (
	"runtime"
	"testing"
	"time"
)

// bubble calls f on the real clock; with GOEXPERIMENT=synctest it runs f on
// a virtual one (bubble_synctest_test.go).
func bubble(_ *testing.T, f func()) { f() }

// checkLeaks fails t when the process still runs more goroutines than base,
// the count before the run, two seconds after the run returned: a goroutine
// that is on its way out gets that long to exit.
func checkLeaks(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left over after the run, %d before it:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
