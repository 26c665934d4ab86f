package protocol

import (
	"math"
	"strings"
	"testing"

	"plos/internal/compress"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/rng"
	"plos/internal/transport"
)

// wideUsers embeds the 2-D synthetic classes into `dim` dimensions (extra
// coordinates are low-amplitude noise). The codec-v4 block headers cost a
// handful of bytes per vector, so demonstrating real byte savings needs
// payloads wider than the 2-D fixtures.
func wideUsers(seed int64, n, dim int) []core.UserData {
	g := rng.New(seed)
	users := make([]core.UserData, n)
	for t := range users {
		labeled := 10
		if t%2 == 1 {
			labeled = 0
		}
		u, truth := synthUser(g.SplitN("u", t), 12, labeled, float64(t)*0.1)
		rows := 24
		x := mat.NewMatrix(rows, dim)
		ng := g.SplitN("noise", t)
		for i := 0; i < rows; i++ {
			x.Set(i, 0, u.X.At(i, 0))
			x.Set(i, 1, u.X.At(i, 1))
			for j := 2; j < dim; j++ {
				x.Set(i, j, ng.Norm()*0.05)
			}
		}
		users[t] = core.UserData{X: x, Y: truth[:labeled]}
	}
	return users
}

func interopCfg(t *testing.T, spec string) compress.Config {
	t.Helper()
	cfg, err := compress.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	return cfg
}

func compStatsOf(c transport.Conn) (int64, int64) {
	if cs, ok := c.(transport.CompressionStats); ok {
		return cs.CompStats()
	}
	return 0, 0
}

// TestCompressionInteropMatrix pins the cross-version story: a
// compression-capable node talking to a peer without the wrapper (the
// "codec v3" node in this tree) must negotiate down to dense frames and
// change NOTHING — the trained model is bit-identical to an all-v3 run.
func TestCompressionInteropMatrix(t *testing.T) {
	users, _ := makeUsers(17, 4)
	cfg := compress.Config{Quant: 8, TopK: 0.5, Delta: true} // composed frames: Parse refuses the spec

	baseline, err, _, baseErrs := runPipesFT(t, users, sweepConfig(), nil, nil)
	if err != nil {
		t.Fatalf("all-v3 run: %v", err)
	}
	for i, e := range baseErrs {
		if e != nil {
			t.Fatalf("all-v3 client %d: %v", i, e)
		}
	}

	cases := []struct {
		name                   string
		wrapServer, wrapClient bool
	}{
		{"v4 client, v3 server", false, true},
		{"v3 client, v4 server", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wrapped []transport.Conn
			wrap := func(role transport.CompressRole) func(i int, c transport.Conn) transport.Conn {
				return func(i int, c transport.Conn) transport.Conn {
					w := transport.Compress(c, cfg, role, nil)
					wrapped = append(wrapped, w)
					return w
				}
			}
			var ws, wc func(i int, c transport.Conn) transport.Conn
			if tc.wrapServer {
				ws = wrap(transport.CompressServer)
			}
			if tc.wrapClient {
				wc = wrap(transport.CompressClient)
			}
			res, err, _, clientErrs := runPipesFT(t, users, sweepConfig(), ws, wc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for i, e := range clientErrs {
				if e != nil {
					t.Fatalf("client %d: %v", i, e)
				}
			}
			if !vecIdentical(baseline.Model.W0, res.Model.W0) {
				t.Error("global hyperplane differs from the all-v3 run")
			}
			for i := range users {
				if !vecIdentical(baseline.Model.W[i], res.Model.W[i]) {
					t.Errorf("user %d hyperplane differs from the all-v3 run", i)
				}
			}
			// The one-sided wrapper must never have compressed a frame.
			for _, w := range wrapped {
				if raw, comp := compStatsOf(w); raw != 0 || comp != 0 {
					t.Errorf("one-sided wrapper compressed %d/%d bytes; want dense fallback", raw, comp)
				}
			}
		})
	}
}

// TestCompressionMixedFleet runs v4 and v3 devices against a v4 server in
// ONE training run: compressed connections carry codec-v4 payloads, the
// dense ones stay untouched, and training completes for everyone.
func TestCompressionMixedFleet(t *testing.T) {
	users := wideUsers(23, 4, 32)
	cfg := interopCfg(t, "q16,topk:0.5")

	serverSide := make([]transport.Conn, len(users))
	clientSide := make([]transport.Conn, len(users))
	wrapServer := func(i int, c transport.Conn) transport.Conn {
		w := transport.Compress(c, cfg, transport.CompressServer, nil)
		serverSide[i] = w
		return w
	}
	wrapClient := func(i int, c transport.Conn) transport.Conn {
		if i%2 == 1 {
			clientSide[i] = c
			return c // a v3 device: no wrapper at all
		}
		w := transport.Compress(c, cfg, transport.CompressClient, nil)
		clientSide[i] = w
		return w
	}
	res, err, _, clientErrs := runPipesFT(t, users, sweepConfig(), wrapServer, wrapClient)
	if err != nil {
		t.Fatalf("mixed fleet run: %v", err)
	}
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
	}
	for i := range users {
		if res.Dropped[i] {
			t.Errorf("mixed fleet dropped user %d", i)
		}
		for _, v := range res.Model.W[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("user %d hyperplane is not finite", i)
			}
		}
		raw, comp := compStatsOf(serverSide[i])
		if i%2 == 0 {
			if raw == 0 || comp == 0 || comp >= raw {
				t.Errorf("v4 device %d: server conn saw raw=%d comp=%d; want real savings", i, raw, comp)
			}
		} else if raw != 0 || comp != 0 {
			t.Errorf("v3 device %d: server conn compressed %d/%d bytes; want none", i, raw, comp)
		}
	}
}

// TestCompressionFlightRecords: with a flight recorder attached, every
// device-round record of a compressed run carries the connection's
// cumulative raw/encoded payload bytes (and real savings).
func TestCompressionFlightRecords(t *testing.T) {
	users := wideUsers(37, 3, 32)
	cfg, _, buf := flightConfig()
	ccfg := interopCfg(t, "q8,topk:0.5")
	wrap := func(role transport.CompressRole) func(i int, c transport.Conn) transport.Conn {
		return func(i int, c transport.Conn) transport.Conn {
			return transport.Compress(c, ccfg, role, nil)
		}
	}
	_, err, _, clientErrs := runPipesFT(t, users, cfg,
		wrap(transport.CompressServer), wrap(transport.CompressClient))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, e := range clientErrs {
		if e != nil {
			t.Fatalf("client %d: %v", i, e)
		}
	}
	out := buf.String()
	if !strings.Contains(out, `"rec":"device-round"`) {
		t.Fatal("no device-round records in the flight stream")
	}
	if !strings.Contains(out, `"raw_bytes":`) || !strings.Contains(out, `"comp_bytes":`) {
		t.Fatal("device-round records lack the compression byte fields")
	}
	// The server compresses its params before the first device reply is
	// merged, so no device-round should ever report zero raw bytes.
	if strings.Contains(out, `"raw_bytes":0,`) {
		t.Error("a device-round record reports zero raw payload bytes")
	}
}

// TestCompressionOffBitIdentical: a WithCompression-capable stack with the
// spec "off" is byte-for-byte absent — the conn wrapper is not even
// installed (Compress returns the inner conn), so the run equals the
// baseline trivially. This guards the plumbing against accidentally
// wrapping disabled configs.
func TestCompressionOffBitIdentical(t *testing.T) {
	users, _ := makeUsers(29, 3)
	off := interopCfg(t, "off")
	wrap := func(role transport.CompressRole) func(i int, c transport.Conn) transport.Conn {
		return func(i int, c transport.Conn) transport.Conn {
			return transport.Compress(c, off, role, nil)
		}
	}
	baseline, err, _, _ := runPipesFT(t, users, sweepConfig(), nil, nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	res, err, _, _ := runPipesFT(t, users, sweepConfig(),
		wrap(transport.CompressServer), wrap(transport.CompressClient))
	if err != nil {
		t.Fatalf("off run: %v", err)
	}
	if !vecIdentical(baseline.Model.W0, res.Model.W0) {
		t.Error("compression-off run differs from baseline")
	}
}
