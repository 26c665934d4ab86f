package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// record is one value of every kind the cursor reads, appended in order.
func record() []byte {
	b := []byte{0xab}
	b = binary.LittleEndian.AppendUint16(b, 0xbeef)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, math.MaxUint64-1)
	b = binary.LittleEndian.AppendUint64(b, uint64(math.Float64bits(-2.5)))
	b = AppendBool(b, true)
	b = binary.AppendUvarint(b, 300)
	b = append(b, "hi"...)
	b = AppendVec(b, []float64{1, math.Inf(-1), 0.125})
	return AppendF64s(b, []float64{math.Pi, -0})
}

// readRecord reads record's layout back; a failure sticks in r.
func readRecord(r *Reader) []any {
	out := []any{r.U8(), r.U16(), r.U32(), r.I64(), r.F64(), r.Bool(), r.Uvarint(), string(r.Bytes(2)), r.Vec(nil)}
	f := make([]float64, 2)
	r.F64s(f)
	return append(out, f)
}

func TestReaderRoundTrip(t *testing.T) {
	buf := record()
	r := NewReader(buf)
	got := readRecord(&r)
	if err := r.End(); err != nil {
		t.Fatalf("End = %v", err)
	}
	want := []any{byte(0xab), uint16(0xbeef), uint32(0xdeadbeef), int64(-2), -2.5, true, uint64(300), "hi",
		[]float64{1, math.Inf(-1), 0.125}, []float64{math.Pi, 0}}
	for i := range want {
		if g, w := got[i], want[i]; !sameValue(g, w) {
			t.Errorf("field %d = %v, want %v", i, g, w)
		}
	}
	if r.Len() != 0 {
		t.Errorf("Len %d after reading %d bytes", r.Len(), len(buf))
	}
}

func sameValue(a, b any) bool {
	fa, ok := a.([]float64)
	if !ok {
		return a == b
	}
	fb := b.([]float64)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) && fa[i] != fb[i] {
			return false
		}
	}
	return true
}

// TestReaderTruncatedEverywhere: cut at every offset, the whole layout reads
// without a panic and End reports the cut.
func TestReaderTruncatedEverywhere(t *testing.T) {
	buf := record()
	for cut := 0; cut < len(buf); cut++ {
		r := NewReader(buf[:cut])
		readRecord(&r)
		if err := r.End(); err == nil {
			t.Fatalf("cut at %d of %d: End = nil", cut, len(buf))
		}
	}
}

func TestReaderRejects(t *testing.T) {
	eight := make([]byte, 16)
	for _, c := range []struct {
		name string
		data []byte
		read func(r *Reader)
		want string // substring of End's error; "" for success
	}{
		{"bool 0", []byte{0}, func(r *Reader) { r.Bool() }, ""},
		{"bool byte 2", []byte{2}, func(r *Reader) { r.Bool() }, "bool byte 0x02"},
		{"minimal two-byte varint", []byte{0x80, 0x01}, func(r *Reader) { r.Uvarint() }, ""},
		{"non-minimal varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, "non-minimal"},
		{"zero in two bytes", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "non-minimal"},
		{"varint past 64 bits", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }, "varint"},
		{"truncated varint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "varint"},
		{"count 2⁶⁴−1 of 1 byte", eight, func(r *Reader) { r.Count(math.MaxUint64, 1) }, "exceed"},
		{"count 2⁶⁴−1 of 8 bytes", eight, func(r *Reader) { r.Count(math.MaxUint64, 8) }, "exceed"},
		{"count 2⁶¹ of 8 bytes", eight, func(r *Reader) { r.Count(1<<61, 8) }, "exceed"},
		{"count that fits", eight, func(r *Reader) { r.Bytes(r.Count(2, 8) * 8) }, ""},
		{"count one too many", eight, func(r *Reader) { r.Count(3, 8) }, "exceed"},
		{"negative byte count", eight, func(r *Reader) { r.Bytes(-1) }, "truncated"},
		{"vec count past the end", binary.LittleEndian.AppendUint32(nil, 3), func(r *Reader) { r.Vec(nil) }, "exceed"},
		{"end refuses trailing bytes", []byte{1, 2}, func(r *Reader) { r.U8() }, "1 trailing bytes"},
		{"first failure wins", []byte{2, 7, 7, 7, 7, 7, 7, 7, 7}, func(r *Reader) {
			r.Bool()
			r.Fail("a later failure")
			r.Count(math.MaxUint64, 1)
		}, "bool byte 0x02"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewReader(c.data)
			c.read(&r)
			err := r.End()
			switch {
			case c.want == "" && err != nil:
				t.Errorf("End = %v, want nil", err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("End = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestReaderStopsAtFirstFailure: once a read fails, every later read returns
// zero and consumes nothing, even where bytes remain.
func TestReaderStopsAtFirstFailure(t *testing.T) {
	buf := binary.LittleEndian.AppendUint64([]byte{2}, 42)
	buf = AppendVec(buf, []float64{1})
	r := NewReader(buf)
	if r.Bool() {
		t.Fatal("bool byte 2 read as true")
	}
	left := r.Len()
	if r.U64() != 0 || r.U8() != 0 || r.Uvarint() != 0 || r.Bytes(1) != nil || r.Vec(nil) != nil || r.Count(0, 1) != 0 {
		t.Error("a read after the failure returned a value")
	}
	if r.Len() != left {
		t.Errorf("reads after the failure moved the cursor: %d bytes left, then %d", left, r.Len())
	}
}

func TestVecReusesDst(t *testing.T) {
	buf := AppendVec(nil, []float64{3, 4})
	dst := make([]float64, 1, 8)
	r := NewReader(buf)
	v := r.Vec(dst)
	if r.End() != nil || len(v) != 2 || &v[0] != &dst[:1][0] || v[1] != 4 {
		t.Errorf("Vec(dst) = %v: did not read into dst's array", v)
	}
	r = NewReader(AppendVec(nil, nil))
	if v := r.Vec(dst); v != nil || r.End() != nil {
		t.Errorf("zero count read as %v, %v; want nil", v, r.Err())
	}
}
