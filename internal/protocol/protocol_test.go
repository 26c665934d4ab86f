package protocol

import (
	"errors"
	"math"
	"sync"
	"testing"

	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/rng"
	"plos/internal/transport"
)

// synthUser mirrors the generator used by the core tests.
func synthUser(g *rng.RNG, perClass, labeled int, theta float64) (core.UserData, []float64) {
	rot := rng.Rotation2D(theta)
	n := 2 * perClass
	x := mat.NewMatrix(n, 2)
	truth := make([]float64, n)
	for i := 0; i < n; i++ {
		cls := 1.0
		if i%2 == 1 {
			cls = -1
		}
		base := mat.Vector{cls*4 + g.Norm()*1.2, cls*4 + g.Norm()*1.2}
		p := rot.MulVec(base)
		x.Set(i, 0, p[0])
		x.Set(i, 1, p[1])
		truth[i] = cls
	}
	return core.UserData{X: x, Y: truth[:labeled]}, truth
}

func makeUsers(seed int64, n int) ([]core.UserData, [][]float64) {
	g := rng.New(seed)
	users := make([]core.UserData, n)
	truths := make([][]float64, n)
	for i := range users {
		labeled := 10
		if i%2 == 1 {
			labeled = 0
		}
		users[i], truths[i] = synthUser(g.SplitN("u", i), 12, labeled, float64(i)*0.1)
	}
	return users, truths
}

// runPipes trains over in-process pipes and returns server result plus the
// client results.
func runPipes(t *testing.T, users []core.UserData, cfg ServerConfig,
	wrap func(i int, c transport.Conn) transport.Conn) (*ServerResult, []*ClientResult, []error) {
	t.Helper()
	n := len(users)
	serverConns := make([]transport.Conn, n)
	clientResults := make([]*ClientResult, n)
	clientErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		if wrap != nil {
			cc = wrap(i, cc)
		}
		serverConns[i] = sc
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			clientResults[i], clientErrs[i] = RunClient(conn, users[i], ClientOptions{Seed: int64(i)})
		}(i, cc)
	}
	res, err := RunServer(serverConns, cfg)
	if err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	wg.Wait()
	return res, clientResults, clientErrs
}

func accuracy(w mat.Vector, u core.UserData, truth []float64) float64 {
	correct := 0
	for i := 0; i < u.X.Rows; i++ {
		pred := -1.0
		if w.Dot(u.X.Row(i)) >= 0 {
			pred = 1
		}
		if pred == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(u.X.Rows)
}

func TestProtocolEndToEndPipes(t *testing.T) {
	users, truths := makeUsers(1, 4)
	cfg := ServerConfig{Core: core.Config{Lambda: 50, Cl: 1, Cu: 0.2}}
	res, clients, clientErrs := runPipes(t, users, cfg, nil)

	for i, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := range users {
		if res.Dropped[i] {
			t.Fatalf("user %d unexpectedly dropped", i)
		}
		if acc := accuracy(res.Model.W[i], users[i], truths[i]); acc < 0.85 {
			t.Errorf("user %d server-side accuracy = %v", i, acc)
		}
		// Client's view of its own hyperplane must match the server's.
		if !clients[i].W.Equal(res.Model.W[i], 1e-9) {
			t.Errorf("user %d hyperplane mismatch between server and device", i)
		}
		if !clients[i].W0.Equal(res.Model.W0, 1e-9) {
			t.Errorf("user %d w0 mismatch", i)
		}
	}
	if res.Total.MessagesSent == 0 || res.Total.BytesSent == 0 {
		t.Errorf("missing traffic accounting: %+v", res.Total)
	}
	if res.Info.ADMMIterations == 0 || res.Info.CCCPIterations == 0 {
		t.Errorf("missing solver diagnostics: %+v", res.Info)
	}
}

func TestProtocolMatchesInProcessDistributed(t *testing.T) {
	users, truths := makeUsers(2, 3)
	coreCfg := core.Config{Lambda: 50, Cl: 1, Cu: 0.2, Seed: 0}
	res, _, _ := runPipes(t, users, ServerConfig{Core: coreCfg}, nil)
	inproc, _, err := core.TrainDistributed(users, coreCfg, core.DistConfig{})
	if err != nil {
		t.Fatalf("TrainDistributed: %v", err)
	}
	// Initializations differ (federated vs pooled), so compare accuracy,
	// not parameters.
	var accWire, accLocal float64
	for i := range users {
		accWire += accuracy(res.Model.W[i], users[i], truths[i])
		accLocal += accuracy(inproc.W[i], users[i], truths[i])
	}
	accWire /= float64(len(users))
	accLocal /= float64(len(users))
	if math.Abs(accWire-accLocal) > 0.1 {
		t.Errorf("wire protocol acc %v vs in-process %v", accWire, accLocal)
	}
}

func TestProtocolDropoutTolerance(t *testing.T) {
	users, truths := makeUsers(3, 4)
	// User 3's device dies after a few messages; the run must complete
	// with the remaining three.
	res, _, _ := runPipes(t, users, ServerConfig{Core: core.Config{Lambda: 50}},
		func(i int, c transport.Conn) transport.Conn {
			if i == 3 {
				return transport.FailAfter(c, 6)
			}
			return c
		})
	if !res.Dropped[3] {
		t.Fatal("user 3 should be reported dropped")
	}
	if res.Model.W[3] != nil {
		t.Error("dropped user should have no final hyperplane")
	}
	for i := 0; i < 3; i++ {
		if res.Dropped[i] {
			t.Fatalf("survivor %d marked dropped", i)
		}
		if acc := accuracy(res.Model.W[i], users[i], truths[i]); acc < 0.8 {
			t.Errorf("survivor %d accuracy = %v", i, acc)
		}
	}
}

func TestProtocolMinActiveAborts(t *testing.T) {
	users, _ := makeUsers(4, 2)
	n := len(users)
	serverConns := make([]transport.Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc, cc := newLink()
		serverConns[i] = sc
		wrapped := transport.Conn(cc)
		if i == 1 {
			wrapped = transport.FailAfter(cc, 4)
		}
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			_, _ = RunClient(conn, users[i], ClientOptions{})
		}(i, wrapped)
	}
	_, err := RunServer(serverConns, ServerConfig{MinActive: 2})
	if !errors.Is(err, ErrTooFewActive) {
		t.Errorf("err = %v, want ErrTooFewActive", err)
	}
	wg.Wait()
}

func TestProtocolDimensionMismatch(t *testing.T) {
	g := rng.New(5)
	u1, _ := synthUser(g.Split("a"), 8, 4, 0)
	u2 := core.UserData{X: mat.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}), Y: []float64{1, -1}}

	sc1, cc1 := newLink()
	sc2, cc2 := newLink()
	var wg sync.WaitGroup
	clientErrs := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, clientErrs[0] = RunClient(cc1, u1, ClientOptions{}) }()
	go func() { defer wg.Done(); _, clientErrs[1] = RunClient(cc2, u2, ClientOptions{}) }()
	_, err := RunServer([]transport.Conn{sc1, sc2}, ServerConfig{})
	if !errors.Is(err, ErrDimMismatch) {
		t.Errorf("err = %v, want ErrDimMismatch", err)
	}
	wg.Wait()
	aborted := 0
	for _, e := range clientErrs {
		if errors.Is(e, ErrAborted) {
			aborted++
		}
	}
	if aborted == 0 {
		t.Error("at least one client should observe the abort")
	}
}

func TestRunServerNoConns(t *testing.T) {
	if _, err := RunServer(nil, ServerConfig{}); !errors.Is(err, ErrNoConns) {
		t.Errorf("err = %v, want ErrNoConns", err)
	}
}

func TestRunClientEmptyData(t *testing.T) {
	_, cc := newLink()
	if _, err := RunClient(cc, core.UserData{X: mat.NewMatrix(0, 2)}, ClientOptions{}); err == nil {
		t.Error("empty data should error")
	}
}

func TestProtocolOverTCP(t *testing.T) {
	users, truths := makeUsers(6, 3)
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	clientErrs := make([]error, len(users))
	for i := range users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := transport.Dial(l.Addr())
			if err != nil {
				clientErrs[i] = err
				return
			}
			defer conn.Close()
			_, clientErrs[i] = RunClient(conn, users[i], ClientOptions{Seed: int64(i)})
		}(i)
	}
	conns, err := l.AcceptN(len(users))
	if err != nil {
		t.Fatalf("AcceptN: %v", err)
	}
	res, err := RunServer(conns, ServerConfig{Core: core.Config{Lambda: 50}})
	if err != nil {
		t.Fatalf("RunServer: %v", err)
	}
	wg.Wait()
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
	}
	// NOTE: connection order from AcceptN need not match dial order, so
	// evaluate each hyperplane against its best-matching user.
	for slot := range conns {
		best := 0.0
		for i := range users {
			if acc := accuracy(res.Model.W[slot], users[i], truths[i]); acc > best {
				best = acc
			}
		}
		if best < 0.8 {
			t.Errorf("slot %d best accuracy = %v", slot, best)
		}
	}
	if res.Total.BytesSent == 0 {
		t.Error("TCP byte accounting missing")
	}
}

func TestHandshakeRejectsNonHello(t *testing.T) {
	sc, cc := newLink()
	go func() {
		_ = cc.Send(transport.Message{Type: transport.MsgUpdate})
	}()
	_, err := RunServer([]transport.Conn{sc}, ServerConfig{})
	if !errors.Is(err, ErrUnexpectedMsg) {
		t.Errorf("err = %v, want ErrUnexpectedMsg", err)
	}
}

func TestClientRejectsMalformedHelloReply(t *testing.T) {
	users, _ := makeUsers(20, 1)
	sc, cc := newLink()
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(cc, users[0], ClientOptions{})
		done <- err
	}()
	if _, err := sc.Recv(); err != nil { // consume the hello
		t.Fatal(err)
	}
	// Reply without config.
	if err := sc.Send(transport.Message{Type: transport.MsgHello, Users: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrUnexpectedMsg) {
		t.Errorf("err = %v, want ErrUnexpectedMsg", err)
	}
}

// A device with fewer labeled rows than features (its ridge init runs in
// the small dimension) still offers that init in its hello, weighted by the
// labeled row count.
func TestClientHelloCarriesLabeledRowsAsInitWeight(t *testing.T) {
	const rows, labeled, dim = 12, 3, 40
	g := rng.New(22)
	x := mat.NewMatrix(rows, dim)
	truth := make([]float64, rows)
	for i := range truth {
		truth[i] = 1 - 2*float64(i%2)
		for j := 0; j < dim; j++ {
			x.Set(i, j, g.Norm()+truth[i])
		}
	}
	user := core.UserData{X: x, Y: truth[:labeled]}
	sc, cc := newLink()
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(cc, user, ClientOptions{})
		done <- err
	}()
	hello, err := sc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if hello.Type != transport.MsgHello || hello.Labeled != labeled || hello.Dim != dim || hello.Samples != rows {
		t.Errorf("hello = type %v labeled %d dim %d samples %d, want hello %d %d %d",
			hello.Type, hello.Labeled, hello.Dim, hello.Samples, labeled, dim, rows)
	}
	want, weight := core.LocalInit(user, core.Config{})
	if weight != labeled || !mat.Vector(hello.W).Equal(want, 0) {
		t.Errorf("hello W is not the device's LocalInit (weight %v)", weight)
	}
	// End the client: a reply without config.
	if err := sc.Send(transport.Message{Type: transport.MsgHello, Users: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrUnexpectedMsg) {
		t.Errorf("err = %v, want ErrUnexpectedMsg", err)
	}
}

func TestClientRejectsUnknownMidTrainingMessage(t *testing.T) {
	users, _ := makeUsers(21, 1)
	sc, cc := newLink()
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(cc, users[0], ClientOptions{})
		done <- err
	}()
	if _, err := sc.Recv(); err != nil {
		t.Fatal(err)
	}
	reply := transport.Message{Type: transport.MsgHello, Users: 1, Dim: 2,
		Config: wireConfig(core.Config{}.WithDefaults(), core.DistConfig{Rho: 1})}
	if err := sc.Send(reply); err != nil {
		t.Fatal(err)
	}
	if err := sc.Send(transport.Message{Type: transport.MsgHello}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrUnexpectedMsg) {
		t.Errorf("err = %v, want ErrUnexpectedMsg", err)
	}
}

func TestServerHelloReplyFailure(t *testing.T) {
	// The client's endpoint dies right after sending its hello: the
	// server must fail the handshake cleanly rather than hang.
	users, _ := makeUsers(30, 1)
	sc, cc := newLink()
	go func() {
		_ = cc.Send(transport.Message{Type: transport.MsgHello, Dim: 2,
			Samples: users[0].X.Rows, W: []float64{1, 0}})
		_ = cc.Close()
	}()
	if _, err := RunServer([]transport.Conn{sc}, ServerConfig{}); err == nil {
		t.Error("hello-reply failure should error")
	}
}

func TestServerSurvivesDeadConnAtDone(t *testing.T) {
	// A device that dies after its last update: the final Done broadcast
	// must not fail the run.
	users, truths := makeUsers(31, 3)
	res, _, _ := runPipes(t, users, ServerConfig{Core: core.Config{Lambda: 50}},
		func(i int, c transport.Conn) transport.Conn {
			if i == 2 {
				// Generous budget: survives training, dies near the end.
				return transport.FailAfter(c, 500)
			}
			return c
		})
	// Whether or not user 2 made it to Done, the survivors must be intact.
	for i := 0; i < 2; i++ {
		if res.Dropped[i] {
			t.Fatalf("survivor %d dropped", i)
		}
		if acc := accuracy(res.Model.W[i], users[i], truths[i]); acc < 0.8 {
			t.Errorf("survivor %d accuracy = %v", i, acc)
		}
	}
}
