package transport

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"plos/internal/compress"
)

func sampleMessages() []Message {
	return []Message{
		{},
		{Type: MsgHello, Dim: 12, Samples: 40, Labeled: 5},
		{Type: MsgStartRound, Round: 3, W0: []float64{1.5, -2.25, 0, math.Inf(1)}},
		{Type: MsgParams, Round: 7, W0: []float64{0.1}, U: []float64{-0.5, 3}},
		{Type: MsgUpdate, Round: 7, W: []float64{1, 2, 3}, V: []float64{4, 5, 6}, Xi: 0.125},
		{Type: MsgDone, W0: []float64{math.SmallestNonzeroFloat64, math.MaxFloat64}},
		{Type: MsgError, Reason: "device on fire 🔥"},
		{Type: MsgHello, Users: 30, Config: &WireConfig{
			Lambda: 100, Cl: 1, Cu: 0.2, Epsilon: 1e-3, Rho: 1,
			MaxCutIter: 60, QPMaxIter: 5000,
			BalanceGuard: true, WarmWorkingSets: false,
		}},
		{Type: MsgType(-9), Round: -1, Dim: -2, Xi: math.NaN()},
		{Type: MsgHello, Dim: 4, Samples: 9, Session: 0x1122334455667788},
		{Type: MsgUpdate, Round: 2, Seq: 41, W: []float64{0.5}},
		{Type: MsgHello, Users: 8, Config: &WireConfig{
			Lambda: 100, Cl: 1, Cu: 0.2, Epsilon: 1e-3, Rho: 1,
			MaxCutIter: 60, QPMaxIter: 5000, Telemetry: true,
		}},
		{Type: MsgUpdate, Round: 4, W: []float64{1, -2}, Xi: 0.5, Telemetry: &WireTelemetry{
			SolveNS: 1_234_567, QPIters: 88, Cuts: 6, WarmHits: 5, SignFlips: 2,
			MsgsSent: 17, MsgsRecv: 18, BytesSent: 4096, BytesRecv: 8192,
			EnergyJ: 0.0625,
		}},
		{Type: MsgUpdate, Telemetry: &WireTelemetry{SolveNS: -1, EnergyJ: math.NaN()}},
		{Type: MsgHello, Config: &WireConfig{Lambda: 1, Rho: math.NaN()}},
	}
}

// equalMessages compares with NaN-tolerant float comparison (reflect alone
// would fail on the NaN sample).
func equalMessages(a, b Message) bool {
	eqF := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	eqV := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !eqF(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if a.Type != b.Type || a.Round != b.Round || a.Dim != b.Dim ||
		a.Samples != b.Samples || a.Labeled != b.Labeled || a.Users != b.Users ||
		a.Seq != b.Seq || a.Session != b.Session ||
		!eqF(a.Xi, b.Xi) || a.Reason != b.Reason {
		return false
	}
	if !eqV(a.W0, b.W0) || !eqV(a.U, b.U) || !eqV(a.W, b.W) || !eqV(a.V, b.V) {
		return false
	}
	if (a.Config == nil) != (b.Config == nil) {
		return false
	}
	if a.Config != nil {
		x, y := *a.Config, *b.Config
		if !eqF(x.Lambda, y.Lambda) || !eqF(x.Cl, y.Cl) || !eqF(x.Cu, y.Cu) ||
			!eqF(x.Epsilon, y.Epsilon) || !eqF(x.Rho, y.Rho) {
			return false
		}
		x.Lambda, x.Cl, x.Cu, x.Epsilon, x.Rho = 0, 0, 0, 0, 0
		y.Lambda, y.Cl, y.Cu, y.Epsilon, y.Rho = 0, 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	if (a.Telemetry == nil) != (b.Telemetry == nil) {
		return false
	}
	if a.Telemetry != nil {
		x, y := *a.Telemetry, *b.Telemetry
		if !eqF(x.EnergyJ, y.EnergyJ) {
			return false
		}
		x.EnergyJ, y.EnergyJ = 0, 0
		if x != y {
			return false
		}
	}
	if (a.Caps == nil) != (b.Caps == nil) {
		return false
	}
	if a.Caps != nil {
		if a.Caps.Quant != b.Caps.Quant || a.Caps.Delta != b.Caps.Delta ||
			!eqF(a.Caps.TopK, b.Caps.TopK) {
			return false
		}
	}
	if (a.Comp == nil) != (b.Comp == nil) {
		return false
	}
	if a.Comp != nil {
		// Compressed vectors compare by canonical byte form (NaN-proof and
		// exactly the identity the codec promises).
		eqVec := func(x, y *compress.Vec) bool {
			if (x == nil) != (y == nil) {
				return false
			}
			return x == nil || bytes.Equal(x.AppendTo(nil), y.AppendTo(nil))
		}
		if !eqVec(a.Comp.W0, b.Comp.W0) || !eqVec(a.Comp.U, b.Comp.U) ||
			!eqVec(a.Comp.W, b.Comp.W) || !eqVec(a.Comp.V, b.Comp.V) {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		enc := EncodeMessage(m)
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("message %d: decode: %v", i, err)
		}
		if !equalMessages(m, got) {
			t.Errorf("message %d: round trip mismatch:\n sent %+v\n got  %+v", i, m, got)
		}
		re := EncodeMessage(got)
		if !bytes.Equal(enc, re) {
			t.Errorf("message %d: re-encode differs from original encoding", i)
		}
	}
}

func TestCodecEmptyVectorsDecodeNil(t *testing.T) {
	m := Message{Type: MsgUpdate, W: []float64{}, V: nil}
	got, err := DecodeMessage(EncodeMessage(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.W != nil || got.V != nil {
		t.Errorf("empty vectors should decode to nil, got W=%v V=%v", got.W, got.V)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	valid := EncodeMessage(sampleMessages()[7]) // the config-carrying hello
	cases := map[string][]byte{
		"empty":             {},
		"bad magic":         append([]byte{'Q'}, valid[1:]...),
		"bad version":       append([]byte{'P', 99}, valid[2:]...),
		"truncated header":  valid[:10],
		"truncated mid-vec": EncodeMessage(Message{W0: []float64{1, 2, 3}})[:100],
		"trailing byte":     append(append([]byte(nil), valid...), 0),
		// Presence byte offset: magic+version (2) + eight i64 (64) + Xi (8) +
		// reason length (4) + four empty vector lengths (16) = 94.
		"presence byte 2":    func() []byte { b := append([]byte(nil), valid...); b[94] = 2; return b }(),
		"huge vector length": append(append([]byte(nil), valid[:2+8*8+8]...), 0xff, 0xff, 0xff, 0xff),
		// The "trailing byte" case above doubles as the telemetry-marker-0
		// rejection: absent telemetry is encoded as zero bytes, so an
		// explicit 0x00 marker is non-canonical.
		"trailing after telemetry": append(append([]byte(nil), EncodeMessage(sampleMessages()[12])...), 0),
		"truncated telemetry":      func() []byte { b := EncodeMessage(sampleMessages()[12]); return b[:len(b)-4] }(),
	}
	for name, data := range cases {
		if _, err := DecodeMessage(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		} else if !errors.Is(err, ErrCodec) {
			t.Errorf("%s: error %v does not wrap ErrCodec", name, err)
		}
	}
}

func TestCodecRejectsOversizedFrame(t *testing.T) {
	if _, err := DecodeMessage(make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}

// checkCanonical is the body of both frame fuzzers. For any input the decoder
// accepts: the Message owns what it holds (scribbling over the frame it was
// decoded from changes nothing), it re-encodes to the identical byte string
// in an exactly-sized slice, AppendMessage behind a prefix yields prefix ‖
// that string, and the encoding decodes back to an equal Message.
func checkCanonical(t *testing.T, data []byte) {
	frame := bytes.Clone(data)
	m, err := DecodeMessage(frame)
	if err != nil {
		return // rejected input is fine; panics are not
	}
	for i := range frame {
		frame[i] = 0xa5
	}
	re := EncodeMessage(m)
	if !bytes.Equal(data, re) {
		t.Fatalf("decodable input is not canonical (or the Message aliases its frame):\n in  %x\n out %x", data, re)
	}
	if cap(re) != len(re) {
		t.Fatalf("EncodeMessage sized its slice %d for a %d-byte frame", cap(re), len(re))
	}
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	if got := AppendMessage(bytes.Clone(prefix), m); !bytes.Equal(got, append(prefix, re...)) {
		t.Fatalf("AppendMessage(prefix, m) != prefix ‖ EncodeMessage(m):\n got %x", got)
	}
	m2, err := DecodeMessage(re)
	if err != nil {
		t.Fatalf("re-encoded frame failed to decode: %v", err)
	}
	if !equalMessages(m, m2) {
		t.Fatalf("decode∘encode∘decode drifted:\n first  %+v\n second %+v", m, m2)
	}
}

// FuzzMessageRoundTrip drives the codec's contracts: DecodeMessage never
// panics, whatever the bytes, and any input it accepts passes checkCanonical.
func FuzzMessageRoundTrip(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(EncodeMessage(m))
	}
	f.Add([]byte{})
	f.Add([]byte{'P'})
	f.Add([]byte{'P', 1})
	f.Add([]byte("not a frame at all"))
	f.Add(bytes.Repeat([]byte{0xff}, 100))
	f.Fuzz(checkCanonical)
}

// decodeSink keeps BenchmarkDecodeMessage's result live.
var decodeSink Message

// BenchmarkDecodeMessage is the codec's own share of a wire-dense exchange:
// one 562-dim update (W and V, a 9 087-byte frame) decoded into a
// connection's vector slots, as tcpConn.Recv does.
func BenchmarkDecodeMessage(b *testing.B) {
	w, v := make([]float64, 562), make([]float64, 562)
	for i := range w {
		w[i], v[i] = float64(i)/7, -float64(i)/9
	}
	frame := EncodeMessage(Message{Type: MsgUpdate, Round: 3, W: w, V: v, Xi: 0.5})
	var slots vecSlots
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := decodeMessage(frame, &slots)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = m
	}
}
