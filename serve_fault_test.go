package plos

import (
	"sync"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/protocol"
	"plos/internal/svm"
	"plos/internal/transport"
)

// serveFaulted runs Serve over real TCP with one device's connection wrapped
// in transport.FailAfter(k). Clients dial sequentially so the server's user
// order matches ours, but the assertions below only rely on drop counts.
// It returns the server result (nil on server error), the server error, and
// the victim's client-side result (nil if the client errored).
func serveFaulted(t *testing.T, users []User, victim, k int) (*ServeResult, error, *protocol.ClientResult) {
	t.Helper()
	addrCh := make(chan string, 1)
	var (
		res       *ServeResult
		serveErr  error
		serveDone = make(chan struct{})
	)
	go func() {
		defer close(serveDone)
		res, serveErr = Serve("127.0.0.1:0", len(users), func(a string) { addrCh <- a },
			WithLambda(50))
	}()
	addr := <-addrCh

	results := make([]*protocol.ClientResult, len(users))
	var wg sync.WaitGroup
	for i := range users {
		conn, err := transport.Dial(addr)
		if err != nil {
			t.Fatalf("dial device %d: %v", i, err)
		}
		c := testLinkWrap(conn)
		if i == victim {
			c = transport.FailAfter(c, k)
		}
		wg.Add(1)
		go func(i int, c transport.Conn) {
			defer wg.Done()
			defer c.Close()
			x := svm.AugmentBias(mat.FromRows(users[i].Features))
			data := core.UserData{X: x, Y: append([]float64(nil), users[i].Labels...)}
			results[i], _ = protocol.RunClient(c, data, protocol.ClientOptions{Seed: int64(i)})
		}(i, c)
	}
	<-serveDone
	wg.Wait() // Serve closed its conns on return, so clients cannot block
	return res, serveErr, results[victim]
}

// TestServeFaultSweep cuts one device's TCP connection after exactly k wire
// operations for every k from 0 to the op count of a clean run. Every sweep
// point must end in one of two states — training completed with exactly the
// victim dropped, or a clean server error — within a watchdog deadline.
func TestServeFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full TCP fault sweep is not -short material")
	}
	users := makeUsers(50, 3, 6, 0.1, func(i int) int {
		if i == 2 {
			return 0
		}
		return 6
	})
	const victim = 1

	clean, err, victimRes := serveFaulted(t, users, victim, 1<<30)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if victimRes == nil {
		t.Fatal("clean run: victim client failed")
	}
	for i, d := range clean.Dropped {
		if d {
			t.Fatalf("clean run dropped device %d", i)
		}
	}
	nOps := victimRes.Traffic.MessagesSent + victimRes.Traffic.MessagesReceived
	if nOps < 10 {
		t.Fatalf("clean run used only %d ops; sweep would be vacuous", nOps)
	}
	t.Logf("clean run: victim performed %d wire ops", nOps)

	for k := 0; k <= nOps; k++ {
		var (
			res  *ServeResult
			rerr error
			done = make(chan struct{})
		)
		go func() {
			defer close(done)
			res, rerr, _ = serveFaulted(t, users, victim, k)
		}()
		select {
		case <-done:
		case <-time.After(120 * time.Second):
			t.Fatalf("k=%d: training hung", k)
		}
		if rerr != nil {
			continue // clean abort is an acceptable outcome
		}
		dropped := 0
		for _, d := range res.Dropped {
			if d {
				dropped++
			}
		}
		// k == nOps-1 kills only the victim's final Recv of MsgDone; the
		// server has already finished by then and legitimately reports a
		// clean, drop-free run it cannot distinguish from success.
		if k < nOps-1 && dropped != 1 {
			t.Errorf("k=%d: fault fired but %d devices dropped, want exactly 1", k, dropped)
		}
		if k >= nOps && dropped != 0 {
			t.Errorf("k=%d: fault never fires yet %d devices dropped", k, dropped)
		}
		if dropped > 1 {
			t.Errorf("k=%d: %d devices dropped, only the victim should", k, dropped)
		}
	}
}

// TestRejoinAfterSessionOver: a reconnection whose hello reaches the accept
// side around the end of the run — queued after the protocol loop's last
// drain, or read once the loop has returned — is answered with a typed
// "session over" and its connection closed. At the parent such a hello was
// never answered and the device waited in Recv until the server exited.
func TestRejoinAfterSessionOver(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	o := defaultOptions()
	o.ft.resume = true
	rejoin, endRejoins := startRejoins(l, &o, 1, serverLink)

	redial := func() transport.Conn {
		t.Helper()
		c, err := transport.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		transport.SetOpTimeout(c, 10*time.Second)
		if err := c.Send(transport.Message{Type: transport.MsgHello, Dim: 3, Session: 42}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	wantOver := func(c transport.Conn, when string) {
		t.Helper()
		defer c.Close()
		m, err := c.Recv()
		if err != nil || m.Type != transport.MsgError || m.Reason != "session over" {
			t.Errorf("hello %s: got %v %q, err %v; want error \"session over\"", when, m.Type, m.Reason, err)
		}
		if _, err := c.Recv(); err == nil {
			t.Errorf("hello %s: connection left open after the answer", when)
		}
	}

	queued := redial()
	for deadline := time.Now().Add(10 * time.Second); len(rejoin) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the hello was never queued")
		}
		time.Sleep(time.Millisecond)
	}
	endRejoins() // the protocol loop returned without draining it
	wantOver(queued, "queued before the run ended")
	for i := 0; i < 20; i++ {
		wantOver(redial(), "arriving after the run ended")
	}
}

// TestServeJoinUnderPoison holds the Conn lending contract (DESIGN.md §12) on
// the real serving path: with every link Serve and Join hand to the protocol
// layer wrapped in transport.Poison, a sequentially dialled
// run reproduces the unwrapped one bit for bit, and the Serve/Join tests pass
// unchanged. A keeper of a lent vector reads NaN here.
func TestServeJoinUnderPoison(t *testing.T) {
	users := makeUsers(50, 3, 6, 0.1, func(i int) int {
		if i == 2 {
			return 0
		}
		return 6
	})
	run := func() (*ServeResult, *protocol.ClientResult) {
		t.Helper()
		res, err, device := serveFaulted(t, users, 1, 1<<30)
		if err != nil || device == nil {
			t.Fatalf("clean run: server %v, device %v", err, device)
		}
		return res, device
	}
	ref, refDevice := run()

	defer func(prev func(transport.Conn) transport.Conn) { testLinkWrap = prev }(testLinkWrap)
	testLinkWrap = transport.Poison
	got, gotDevice := run()
	exactEqual(t, "poisoned vs unwrapped: global model", got.Model.Global(), ref.Model.Global())
	exactEqual(t, "poisoned vs unwrapped: device's model", gotDevice.W, refDevice.W)
	exactEqual(t, "poisoned vs unwrapped: device's global model", gotDevice.W0, refDevice.W0)
	for u := range users {
		exactEqual(t, "poisoned vs unwrapped: server-side personalized model", got.Model.Personalized(u), ref.Model.Personalized(u))
	}
	t.Run("TestServeJoinLoopback", TestServeJoinLoopback)
	t.Run("TestServeJoinAsyncLoopback", TestServeJoinAsyncLoopback)
	t.Run("TestServeJoinTelemetry", TestServeJoinTelemetry)
}
