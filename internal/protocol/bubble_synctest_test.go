//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package protocol

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/synctest"
)

// bubble runs f in a testing/synctest bubble: its clock advances only when
// every goroutine f started is durably blocked, so a round timeout or a
// reduce deadline costs no wall time and no host load can make an honest
// device miss one. The tests that wait on a clock run their pipe rows
// through it; built without GOEXPERIMENT=synctest, bubble calls f on the
// real clock (bubble_test.go). A t.Fatal in f ends f's goroutine, the
// bubble's first, not the test's: the failure is recorded, and goroutines
// it leaves blocked end the run in synctest's deadlock panic. Pre-1.23
// timer channels, which go.mod's version would select, are refused in a
// bubble; the go:debug line above selects the others.
func bubble(t *testing.T, f func()) {
	t.Helper()
	synctest.Run(f)
}

// checkLeaks fails t when a goroutine of the caller's bubble outlives the
// run. It reports with t.Errorf, since the caller is the bubble's goroutine,
// not the test's. Once synctest.Wait returns, every other goroutine of the bubble has
// exited or is blocked for good, so one look is final. It reads the
// bubble's goroutines off their stacks rather than counting all of the
// process's against base: a goroutine outside the bubble, such as a
// finalizer in flight, may come and go while the bubble stands still.
func checkLeaks(t *testing.T, _ int) {
	t.Helper()
	synctest.Wait()
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	all := string(buf[:n])
	head, _, _ := strings.Cut(all, "\n") // the caller's goroutine comes first
	var self, group int
	if _, err := fmt.Sscanf(head, "goroutine %d [running, synctest group %d]:", &self, &group); err != nil {
		t.Errorf("cannot read the bubble off %q: %v", head, err)
		return
	}
	// The goroutine waiting in synctest.Run is the group's own.
	mark := fmt.Sprintf("synctest group %d]", group)
	var left []string
	for _, g := range strings.Split(all, "\n\n") {
		var id int
		first, _, _ := strings.Cut(g, "\n")
		if _, err := fmt.Sscanf(first, "goroutine %d ", &id); err == nil &&
			strings.Contains(first, mark) && id != self && id != group {
			left = append(left, g)
		}
	}
	if len(left) > 0 {
		t.Errorf("%d goroutines left over after the run:\n%s", len(left), strings.Join(left, "\n\n"))
	}
}
