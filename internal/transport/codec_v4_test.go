package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"plos/internal/compress"
	"plos/internal/rng"
)

// compVec produces a deterministic compressed vector for codec tests (the
// frame-th frame of a fresh stream, so frame > 0 exercises delta coding).
func compVec(cfg compress.Config, dim, frames int, seed int64) *compress.Vec {
	enc := compress.NewEncoder(cfg)
	g := rng.New(seed)
	var v *compress.Vec
	for i := 0; i < frames; i++ {
		x := make([]float64, dim)
		for j := range x {
			x[j] = 2*g.Float64() - 1
		}
		v = enc.Encode(compress.SlotW, x)
	}
	return v
}

// sampleV4Messages covers the codec v4 surface: caps offers and answers,
// every compression scheme alone and composed, multi-slot payloads, and the
// telemetry piggyback sharing a frame with a compression block.
func sampleV4Messages() []Message {
	q8 := compress.Config{Quant: 8}
	q16 := compress.Config{Quant: 16}
	topk := compress.Config{TopK: 0.25}
	delta := compress.Config{Delta: true}
	composed := compress.Config{Quant: 8, TopK: 0.25, Delta: true}
	return []Message{
		{Type: MsgHello, Dim: 12, Samples: 40, Labeled: 5, Caps: &composed},
		{Type: MsgHello, Dim: 12, Samples: 40, Labeled: 5, Caps: &compress.Config{}},
		{Type: MsgHello, Users: 8, Caps: &q8, Config: &WireConfig{
			Lambda: 100, Cl: 1, Cu: 0.2, Epsilon: 1e-3, Rho: 1,
			MaxCutIter: 60, QPMaxIter: 5000, Telemetry: true,
		}},
		{Type: MsgUpdate, Round: 2, Comp: &WireComp{W: compVec(q8, 20, 1, 1), V: compVec(q8, 20, 1, 2)}},
		{Type: MsgUpdate, Round: 3, Comp: &WireComp{W: compVec(q16, 20, 1, 3)}},
		{Type: MsgParams, Round: 4, Comp: &WireComp{W0: compVec(topk, 40, 1, 4), U: compVec(topk, 40, 1, 5)}},
		{Type: MsgParams, Round: 5, Comp: &WireComp{W0: compVec(delta, 10, 1, 6)}}, // first frame: raw scheme 0
		{Type: MsgParams, Round: 6, Comp: &WireComp{W0: compVec(delta, 10, 3, 7)}}, // delta frame
		{Type: MsgUpdate, Round: 7, Xi: 0.25, Comp: &WireComp{
			W: compVec(composed, 64, 2, 8), V: compVec(composed, 64, 2, 9),
		}},
		{Type: MsgUpdate, Round: 8, Comp: &WireComp{W: compVec(composed, 33, 1, 10)},
			Telemetry: &WireTelemetry{SolveNS: 99, QPIters: 3, MsgsSent: 4, EnergyJ: 1.5}},
		{Type: MsgUpdate, Round: 9, Comp: &WireComp{}}, // negotiated but empty payload
	}
}

func TestCodecV4RoundTrip(t *testing.T) {
	for i, m := range sampleV4Messages() {
		enc := EncodeMessage(m)
		if enc[1] != codecVersionComp {
			t.Fatalf("message %d: version byte %d, want %d", i, enc[1], codecVersionComp)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("message %d: decode: %v", i, err)
		}
		if !equalMessages(m, got) {
			t.Errorf("message %d: round trip mismatch:\n sent %+v\n got  %+v", i, m, got)
		}
		if re := EncodeMessage(got); !bytes.Equal(enc, re) {
			t.Errorf("message %d: re-encode differs from original encoding", i)
		}
	}
}

// TestCodecV3BitIdentityPinned is the compression-off acceptance gate: any
// message without negotiation or compression blocks must encode to exactly
// the codec v3 bytes, pinned here against golden frames captured before
// codec v4 existed. A compression-disabled deployment is therefore
// bit-identical to a v3 one on the wire.
func TestCodecV3BitIdentityPinned(t *testing.T) {
	golden := []struct {
		m   Message
		hex string
	}{
		{Message{Type: MsgParams, Round: 7, W0: []float64{0.1}, U: []float64{-0.5, 3}},
			"500303000000000000000700000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000009a9999999999b93f02000000000000000000e0bf0000000000000840000000000000000000"},
		{Message{Type: MsgUpdate, Round: 7, W: []float64{1, 2, 3}, V: []float64{4, 5, 6}, Xi: 0.125},
			"500304000000000000000700000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000c03f00000000000000000000000003000000000000000000f03f000000000000004000000000000008400300000000000000000010400000000000001440000000000000184000"},
		{Message{Type: MsgHello, Users: 30, Config: &WireConfig{
			Lambda: 100, Cl: 1, Cu: 0.2, Epsilon: 1e-3, Rho: 1,
			MaxCutIter: 60, QPMaxIter: 5000, BalanceGuard: true, WarmWorkingSets: false,
		}},
			"5003010000000000000000000000000000000000000000000000000000000000000000000000000000001e000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000005940000000000000f03f9a9999999999c93ffca9f1d24d62503f000000000000f03f3c000000000000008813000000000000010000"},
		{Message{Type: MsgUpdate, Round: 4, W: []float64{1, -2}, Xi: 0.5, Telemetry: &WireTelemetry{
			SolveNS: 1_234_567, QPIters: 88, Cuts: 6, WarmHits: 5, SignFlips: 2,
			MsgsSent: 17, MsgsRecv: 18, BytesSent: 4096, BytesRecv: 8192, EnergyJ: 0.0625,
		}},
			"500304000000000000000400000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000e03f00000000000000000000000002000000000000000000f03f00000000000000c000000000000187d612000000000058000000000000000600000000000000050000000000000002000000000000001100000000000000120000000000000000100000000000000020000000000000000000000000b03f"},
	}
	for i, g := range golden {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("golden %d: %v", i, err)
		}
		if got := EncodeMessage(g.m); !bytes.Equal(got, want) {
			t.Errorf("golden %d: encoding drifted from pinned v3 bytes", i)
		}
	}
	// And every compression-free sample emits version byte 3.
	for i, m := range sampleMessages() {
		if enc := EncodeMessage(m); enc[1] != codecVersion {
			t.Errorf("sample %d: compression-free message encoded as version %d", i, enc[1])
		}
	}
}

func TestCodecV4RejectsCorruption(t *testing.T) {
	valid := EncodeMessage(sampleV4Messages()[8]) // composed q8+topk+delta, two slots
	// Flags byte offset: magic+version (2) + eight i64 (64) + Xi (8) +
	// reason length (4) + four empty vector lengths (16) + config presence
	// byte (1) = 95 for this sample.
	const flags = 95
	if valid[flags-1] != 0 {
		t.Fatalf("test assumption broken: config presence byte not at %d", flags-1)
	}
	mut := func(off int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[off] = b
		return out
	}
	cases := map[string][]byte{
		"unknown flag bits":     mut(flags, 0x84),
		"v4 without blocks":     mut(flags, 0x00),
		"v4 telemetry only":     mut(flags, 0x01),
		"bad slot byte":         mut(flags+1, 0xf0),
		"bad scheme bits":       mut(flags+2+4, 0x80), // first vec: dim u32 then scheme
		"q8 and q16 both":       mut(flags+2+4, 0x03),
		"truncated comp block":  valid[:len(valid)-3],
		"trailing after comp":   append(append([]byte(nil), valid...), 0),
		"caps bad quant":        caps(t, 7),
		"caps bad delta byte":   capsDelta(t, 2),
		"zero-dim vector":       zeroDimVec(t),
		"index out of range":    badIndexVec(t),
		"non-minimal index gap": nonMinimalGapVec(t),
		"index gap 2⁶⁴−1":       hugeGapFrame(math.MaxUint64),
		"index gap past 2³²":    hugeGapFrame(0xffffffff00000005),
	}
	for name, data := range cases {
		if _, err := DecodeMessage(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		} else if !errors.Is(err, ErrCodec) {
			t.Errorf("%s: error %v does not wrap ErrCodec", name, err)
		}
	}
}

// caps builds a caps-carrying hello and corrupts its quant byte.
func caps(t *testing.T, quant byte) []byte {
	t.Helper()
	m := Message{Type: MsgHello, Caps: &compress.Config{Quant: 8}}
	enc := EncodeMessage(m)
	enc[len(enc)-10] = quant // quant byte sits 10 bytes from the end (quant + topk f64 + delta)
	return enc
}

func capsDelta(t *testing.T, b byte) []byte {
	t.Helper()
	enc := EncodeMessage(Message{Type: MsgHello, Caps: &compress.Config{Quant: 8}})
	enc[len(enc)-1] = b
	return enc
}

func zeroDimVec(t *testing.T) []byte {
	t.Helper()
	enc := EncodeMessage(Message{Type: MsgUpdate, Comp: &WireComp{W: compVec(compress.Config{Quant: 8}, 4, 1, 1)}})
	// The vec block starts right after flags+presence; zero its dim u32.
	off := len(enc) - compVec(compress.Config{Quant: 8}, 4, 1, 1).EncodedSize()
	for i := 0; i < 4; i++ {
		enc[off+i] = 0
	}
	return enc
}

func badIndexVec(t *testing.T) []byte {
	t.Helper()
	v := compVec(compress.Config{TopK: 0.5}, 8, 1, 1)
	enc := EncodeMessage(Message{Type: MsgUpdate, Comp: &WireComp{W: v}})
	off := len(enc) - v.EncodedSize()
	// First gap varint sits after dim(4)+scheme(1)+k(4); 0xff 0x7f = gap
	// 16383, far beyond dim 8.
	enc[off+9] = 0xff
	enc[off+10] = 0x7f
	return enc
}

func nonMinimalGapVec(t *testing.T) []byte {
	t.Helper()
	v := compVec(compress.Config{TopK: 0.5}, 8, 1, 1)
	raw := v.AppendTo(nil)
	// Rewrite the first gap as a redundant two-byte varint (0x81 0x00 = 1).
	out := append([]byte(nil), raw[:9]...)
	out = append(out, 0x81, 0x00)
	out = append(out, raw[10:]...)
	return wFrame(out)
}

// hugeGapFrame carries a dim-8 top-k block keeping one coordinate, reached
// by the given index gap.
func hugeGapFrame(gap uint64) []byte {
	raw := compVec(compress.Config{TopK: 0.125}, 8, 1, 1).AppendTo(nil)
	// dim(4) + scheme(1) + k(4), the one gap, then one f64 value.
	out := binary.AppendUvarint(append([]byte(nil), raw[:9]...), gap)
	return wFrame(append(out, raw[len(raw)-8:]...))
}

// wFrame is an update frame whose W slot is the given compressed block.
func wFrame(block []byte) []byte {
	head := EncodeMessage(Message{Type: MsgUpdate, Comp: &WireComp{}})
	frame := append([]byte(nil), head[:len(head)-1]...) // strip empty presence byte
	frame = append(frame, 0x04)                         // W slot present
	return append(frame, block...)
}

// TestCompressedFrameFaultSweep mirrors the PR 1 per-message fault sweeps
// for v4 frames: every truncation point and every single-byte flip either
// fails with a typed ErrCodec error or yields a message that still
// round-trips canonically — never a panic or a hang.
func TestCompressedFrameFaultSweep(t *testing.T) {
	for i, m := range sampleV4Messages() {
		valid := EncodeMessage(m)
		for cut := 0; cut < len(valid); cut++ {
			if _, err := DecodeMessage(valid[:cut]); err == nil {
				t.Fatalf("message %d: truncation at %d accepted", i, cut)
			} else if !errors.Is(err, ErrCodec) {
				t.Fatalf("message %d: truncation at %d: error %v does not wrap ErrCodec", i, cut, err)
			}
		}
		for off := 0; off < len(valid); off++ {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0xff
			got, err := DecodeMessage(mut)
			if err != nil {
				if !errors.Is(err, ErrCodec) {
					t.Fatalf("message %d: flip at %d: error %v does not wrap ErrCodec", i, off, err)
				}
				continue
			}
			if re := EncodeMessage(got); !bytes.Equal(mut, re) {
				t.Fatalf("message %d: flip at %d accepted but not canonical", i, off)
			}
		}
	}
}

// FuzzCompressedFrameRoundTrip extends the codec fuzz corpus to v4 frames:
// all three schemes and their compositions, caps blocks, and shared
// telemetry. The properties are those of FuzzMessageRoundTrip — no panics,
// and accepted inputs are canonical.
func FuzzCompressedFrameRoundTrip(f *testing.F) {
	for _, m := range sampleV4Messages() {
		f.Add(EncodeMessage(m))
	}
	f.Add(hugeGapFrame(math.MaxUint64))
	f.Add(hugeGapFrame(0xffffffff00000005))
	f.Add([]byte{'P', 4})
	f.Add(append([]byte{'P', 4}, make([]byte, 100)...))
	f.Fuzz(checkCanonical)
}
