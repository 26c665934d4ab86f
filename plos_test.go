package plos

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"plos/internal/core"
	"plos/internal/rng"
)

// makeUsers builds a small heterogeneous population: two Gaussian classes
// per user, optionally rotated, first `labeled` samples labeled.
func makeUsers(seed int64, count, perClass int, rotateEvery float64, labeledFor func(i int) int) []User {
	g := rng.New(seed)
	users := make([]User, count)
	for t := 0; t < count; t++ {
		rot := rng.Rotation2D(rotateEvery * float64(t))
		n := 2 * perClass
		features := make([][]float64, n)
		labels := make([]float64, 0, n)
		labeled := labeledFor(t)
		gu := g.SplitN("user", t)
		for i := 0; i < n; i++ {
			cls := 1.0
			if i%2 == 1 {
				cls = -1
			}
			p := rot.MulVec([]float64{cls*4 + gu.Norm(), cls*4 + gu.Norm()})
			features[i] = p
			if i < labeled {
				labels = append(labels, cls)
			}
		}
		users[t] = User{Features: features, Labels: labels}
	}
	return users
}

func userAccuracy(m *Model, t int, u User) float64 {
	correct := 0
	for i, x := range u.Features {
		cls := 1.0
		if i%2 == 1 {
			cls = -1
		}
		if m.Predict(t, x) == cls {
			correct++
		}
	}
	return float64(correct) / float64(len(u.Features))
}

func TestTrainEndToEnd(t *testing.T) {
	users := makeUsers(1, 3, 15, 0, func(i int) int {
		if i == 2 {
			return 0
		}
		return 10
	})
	m, err := Train(users, WithLambda(100), WithSeed(1))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if m.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d", m.NumUsers())
	}
	for i, u := range users {
		if acc := userAccuracy(m, i, u); acc < 0.9 {
			t.Errorf("user %d accuracy = %v", i, acc)
		}
	}
	st := m.Stats()
	if st.CCCPIterations == 0 || st.Constraints == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
	if len(m.Global()) != 3 { // 2 features + bias
		t.Errorf("Global dims = %d", len(m.Global()))
	}
	if len(m.Personalized(0)) != 3 {
		t.Errorf("Personalized dims = %d", len(m.Personalized(0)))
	}
	// PredictGlobal works for an unseen sample.
	if got := m.PredictGlobal([]float64{5, 5}); got != 1 {
		t.Errorf("PredictGlobal = %v", got)
	}
	if m.Score(0, []float64{5, 5}) <= 0 {
		t.Error("Score should be positive deep in the +1 region")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil); !errors.Is(err, ErrNoUsers) {
		t.Errorf("Train(nil) = %v", err)
	}
	if _, err := Train([]User{{}}); err == nil {
		t.Error("user without features should error")
	}
	bad := makeUsers(2, 1, 5, 0, func(int) int { return 4 })
	bad[0].Labels[0] = 3
	if _, err := Train(bad); err == nil {
		t.Error("bad label should error")
	}
}

// TestEntryPointsRejectBadFeatures: a ragged row or a non-finite feature is
// refused by every public trainer with an error naming the user and the
// sample — never a panic, never a silent fit — and Join refuses it before
// it dials.
func TestEntryPointsRejectBadFeatures(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	entries := []struct {
		name  string
		train func([]User) error
	}{
		{"Train", func(us []User) error { _, err := Train(us); return err }},
		{"TrainKernel", func(us []User) error { _, err := TrainKernel(us, RBFKernel(1)); return err }},
		{"TrainDistributed", func(us []User) error { _, err := TrainDistributed(us); return err }},
		{"TrainAsync", func(us []User) error { _, err := TrainAsync(us); return err }},
		{"TrainMulticlass", func(us []User) error {
			mus := make([]MulticlassUser, len(us))
			for t, u := range us {
				mus[t].Features = u.Features
				for _, y := range u.Labels {
					mus[t].Labels = append(mus[t].Labels, int(y))
				}
			}
			_, err := TrainMulticlass(mus)
			return err
		}},
		{"Join", func(us []User) error { _, err := Join(ln.Addr().String(), us[1]); return err }},
	}
	rows := []struct {
		name string
		row  []float64
		want error
	}{
		{"ragged", []float64{1, 2, 3}, core.ErrDimMismatch},
		{"NaN", []float64{math.NaN(), 0}, ErrBadFeature},
		{"+Inf", []float64{0, math.Inf(1)}, ErrBadFeature},
		{"-Inf", []float64{math.Inf(-1), 0}, ErrBadFeature},
	}
	for _, r := range rows {
		for _, e := range entries {
			users := makeUsers(3, 2, 5, 0, func(int) int { return 4 })
			users[1].Features[3] = r.row
			err := e.train(users)
			if !errors.Is(err, r.want) {
				t.Errorf("%s, %s row: %v, want %v", e.name, r.name, err, r.want)
				continue
			}
			if e.name != "Join" && !strings.Contains(err.Error(), "user 1 sample 3") {
				t.Errorf("%s, %s row: %q does not name user 1 sample 3", e.name, r.name, err)
			}
		}
	}
	if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if c, err := ln.Accept(); err == nil {
		c.Close()
		t.Error("Join dialed before it checked the features")
	}
}

func TestTrainDistributedMatches(t *testing.T) {
	users := makeUsers(3, 3, 12, 0.2, func(i int) int {
		if i == 0 {
			return 8
		}
		return 0
	})
	cm, err := Train(users, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	dm, err := TrainDistributed(users, WithSeed(3), WithADMM(1, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	var accC, accD float64
	for i, u := range users {
		accC += userAccuracy(cm, i, u)
		accD += userAccuracy(dm, i, u)
	}
	if math.Abs(accC-accD)/3 > 0.1 {
		t.Errorf("centralized %v vs distributed %v", accC/3, accD/3)
	}
	if dm.Stats().ADMMIterations == 0 {
		t.Error("distributed stats should report ADMM iterations")
	}
}

func TestWithoutBias(t *testing.T) {
	users := makeUsers(4, 2, 10, 0, func(int) int { return 8 })
	m, err := Train(users, WithoutBias(), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Global()) != 2 {
		t.Errorf("WithoutBias dims = %d", len(m.Global()))
	}
}

func TestWithLossWeightsZeroCu(t *testing.T) {
	users := makeUsers(5, 2, 10, 0, func(int) int { return 20 })
	if _, err := Train(users, WithLossWeights(1, 0)); err != nil {
		t.Fatalf("cu=0 training failed: %v", err)
	}
}

func TestServeJoinLoopback(t *testing.T) {
	users := makeUsers(6, 3, 10, 0.1, func(i int) int {
		if i == 2 {
			return 0
		}
		return 8
	})
	addrCh := make(chan string, 1)
	var serveRes *ServeResult
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveRes, serveErr = Serve("127.0.0.1:0", len(users),
			func(addr string) { addrCh <- addr }, WithSeed(6))
	}()
	addr := <-addrCh
	devices := make([]*DeviceModel, len(users))
	deviceErrs := make([]error, len(users))
	var dwg sync.WaitGroup
	for i := range users {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			devices[i], deviceErrs[i] = Join(addr, users[i], WithSeed(int64(i)))
		}(i)
	}
	dwg.Wait()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("Serve: %v", serveErr)
	}
	for i, err := range deviceErrs {
		if err != nil {
			t.Fatalf("Join %d: %v", i, err)
		}
	}
	for i, d := range devices {
		if d.Bytes == 0 || d.Messages == 0 {
			t.Errorf("device %d reports no traffic", i)
		}
		correct := 0
		for j, x := range users[i].Features {
			cls := 1.0
			if j%2 == 1 {
				cls = -1
			}
			if d.Predict(x) == cls {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(users[i].Features)); acc < 0.8 {
			t.Errorf("device %d accuracy = %v", i, acc)
		}
		if len(d.Global()) != 3 || len(d.Personalized()) != 3 {
			t.Errorf("device %d model dims wrong", i)
		}
	}
	if len(serveRes.TrafficBytes) != len(users) {
		t.Errorf("TrafficBytes = %v", serveRes.TrafficBytes)
	}
}

// TestServeJoinAsyncLoopback exercises WithAsync end to end over real TCP:
// the DJAM mode negotiates in the hello exchange, trains without a global
// round clock, and every device still converges.
func TestServeJoinAsyncLoopback(t *testing.T) {
	users := makeUsers(7, 3, 10, 0.1, func(i int) int {
		if i == 2 {
			return 0
		}
		return 8
	})
	addrCh := make(chan string, 1)
	var serveRes *ServeResult
	var serveErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveRes, serveErr = Serve("127.0.0.1:0", len(users),
			func(addr string) { addrCh <- addr }, WithSeed(7), WithAsync())
	}()
	addr := <-addrCh
	devices := make([]*DeviceModel, len(users))
	deviceErrs := make([]error, len(users))
	var dwg sync.WaitGroup
	for i := range users {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			devices[i], deviceErrs[i] = Join(addr, users[i], WithSeed(int64(i)), WithAsync())
		}(i)
	}
	dwg.Wait()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("Serve: %v", serveErr)
	}
	for i, err := range deviceErrs {
		if err != nil {
			t.Fatalf("Join %d: %v", i, err)
		}
	}
	if st := serveRes.Model.Stats(); st.ADMMIterations == 0 {
		t.Error("async run should report folded updates as ADMM iterations")
	}
	for i, d := range devices {
		correct := 0
		for j, x := range users[i].Features {
			cls := 1.0
			if j%2 == 1 {
				cls = -1
			}
			if d.Predict(x) == cls {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(users[i].Features)); acc < 0.8 {
			t.Errorf("device %d accuracy = %v", i, acc)
		}
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", 0, nil); err == nil {
		t.Error("0 devices should error")
	}
	if _, err := Join("127.0.0.1:1", User{}); err == nil {
		t.Error("empty user should error before dialing")
	}
}
