package protocol

import (
	"sync"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/transport"
)

// sweepConfig keeps each training run tiny so the exhaustive k-sweep stays
// fast: two CCCP rounds of at most four ADMM iterations each.
func sweepConfig() ServerConfig {
	return ServerConfig{
		Core: core.Config{Lambda: 50, Cl: 1, Cu: 0.2, MaxCCCPIter: 2, MaxCutIter: 8},
		Dist: core.DistConfig{MaxADMMIter: 4},
	}
}

// runFaultedPipes trains over pipes with user `victim`'s client conn wrapped
// in FailAfter(k). Unlike runPipes it tolerates server errors (some sweep
// points abort during the handshake) and always unblocks surviving clients
// by closing the server conns before waiting for them.
func runFaultedPipes(t *testing.T, users []core.UserData, victim, k int) (*ServerResult, error) {
	t.Helper()
	n := len(users)
	serverConns := make([]transport.Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		serverConns[i] = sc
		conn := cc
		if i == victim {
			conn = transport.FailAfter(cc, k)
		}
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			_, _ = RunClient(conn, users[i], ClientOptions{Seed: int64(i)})
		}(i, conn)
	}
	res, err := RunServer(serverConns, sweepConfig())
	for _, c := range serverConns {
		_ = c.Close()
	}
	wg.Wait()
	return res, err
}

// TestFaultSweepEveryMessage kills one device's connection after exactly k
// operations, for every k from 0 (dies before its hello) to the op count of
// a clean run (never dies). Whatever k, training must either complete with
// the victim reported dropped, or fail with a clean error — never hang and
// never panic. A watchdog per sweep point turns a hang into a test failure
// instead of a 10-minute suite timeout.
func TestFaultSweepEveryMessage(t *testing.T) {
	users, _ := makeUsers(40, 3)
	const victim = 1

	clean, err := runFaultedPipes(t, users, victim, 1<<30)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if clean.Dropped[victim] {
		t.Fatal("clean run dropped the victim")
	}
	// The victim's client performs exactly as many ops as the server's side
	// of its connection observed (every pipe op is one send/recv pair).
	nOps := clean.PerUser[victim].MessagesSent + clean.PerUser[victim].MessagesReceived
	if nOps < 10 {
		t.Fatalf("clean run exchanged only %d ops; sweep would be vacuous", nOps)
	}

	for k := 0; k <= nOps; k++ {
		var (
			res  *ServerResult
			rerr error
			done = make(chan struct{})
		)
		go func() {
			defer close(done)
			res, rerr = runFaultedPipes(t, users, victim, k)
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatalf("k=%d: training hung", k)
		}
		if rerr != nil {
			continue // a clean server error is an acceptable outcome
		}
		if k < nOps && !res.Dropped[victim] {
			t.Errorf("k=%d: fault fired but victim not reported dropped", k)
		}
		if k >= nOps && res.Dropped[victim] {
			t.Errorf("k=%d: fault never fires yet victim dropped", k)
		}
		for i := range users {
			if i != victim && res.Dropped[i] {
				t.Errorf("k=%d: healthy user %d reported dropped", k, i)
			}
		}
	}
}
