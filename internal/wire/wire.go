// Package wire is the one bounded little-endian cursor every binary format
// of the repo reads through — the frame codec (internal/transport), the
// checkpoint codec (internal/protocol) and the compressed-vector block
// (internal/compress) — and the appenders for the layouts they share.
//
// A Reader never panics and never sizes anything from a length it has not
// checked against the bytes that remain: Count bounds an element count
// before the caller allocates for it. The first failure sticks; every later
// read returns zero, so a format reads its whole layout straight through and
// asks once, at its entry point, whether it held (End, or Err for a prefix).
// Each format wraps that one error in its own sentinel.
//
// The reads are strict, so that a format built from them is canonical —
// exactly one byte string encodes a value, and every accepted string
// re-encodes identically: Bool accepts only 0 and 1, Uvarint only the
// minimal-length encoding, and End refuses trailing bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Reader is a strict cursor over one buffer. The zero value reads an empty
// buffer; NewReader starts one at its first byte.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a cursor at the start of buf.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// Err is the first failure, or nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Len is the number of bytes that remain.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Fail records a format-level failure at the current offset, unless an
// earlier one already stuck.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("byte %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

// End is Err, or a failure when bytes remain unread.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Bytes consumes n bytes, or fails and returns nil when fewer remain. The
// result aliases the buffer: a caller that keeps it copies it.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.Fail("truncated (want %d bytes, %d remain)", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.Bytes(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Bytes(2); len(b) == 2 {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a two's-complement little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads an IEEE-754 float64 from its little-endian bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1: a 2 would read as true but
// re-encode as 1.
func (r *Reader) Bool() bool {
	switch b := r.U8(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("bool byte 0x%02x", b)
		return false
	}
}

// Uvarint reads an unsigned varint in its minimal-length encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || n != UvarintLen(v) {
		r.Fail("varint is truncated, overlong or non-minimal")
		return 0
	}
	r.off += n
	return v
}

// UvarintLen is the length of x's minimal varint encoding.
func UvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Count checks that n elements of size bytes each still fit in what
// remains, and returns n as an int; otherwise it fails and returns 0. It
// divides instead of multiplying, so no n overflows the check, and a caller
// may size a slice from the result.
func (r *Reader) Count(n uint64, size int) int {
	if r.err != nil {
		return 0
	}
	if rem := r.Len(); n > uint64(rem/size) {
		r.Fail("%d elements of %d bytes exceed the %d bytes that remain", n, size, rem)
		return 0
	}
	return int(n)
}

// F64s fills dst with len(dst) float64s, in one pass over their bytes.
func (r *Reader) F64s(dst []float64) {
	src := r.Bytes(8 * len(dst))
	for i := 0; len(src) >= 8 && i < len(dst); i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[:8]))
		src = src[8:]
	}
}

// Vec reads a vec block — a u32 count, then that many float64s — into
// dst's array when it is large enough, else into a fresh one. The count is
// checked against the remaining bytes before anything is sized from it. A
// zero count reads as nil.
func (r *Reader) Vec(dst []float64) []float64 {
	n := r.Count(uint64(r.U32()), 8)
	if n == 0 {
		return nil
	}
	v := slices.Grow(dst[:0], n)[:n]
	r.F64s(v)
	return v
}

// AppendBool appends b as one 0/1 byte.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendF64s appends the little-endian bits of every element of v. The
// element area is sized once, so the loop carries no per-element append.
func AppendF64s(buf []byte, v []float64) []byte {
	off := len(buf)
	buf = slices.Grow(buf, 8*len(v))[:off+8*len(v)]
	out := buf[off:]
	for len(out) >= 8 && len(v) > 0 {
		binary.LittleEndian.PutUint64(out[:8], math.Float64bits(v[0]))
		out, v = out[8:], v[1:]
	}
	return buf
}

// AppendVec appends a vec block: the u32 count, then the elements.
func AppendVec(buf []byte, v []float64) []byte {
	return AppendF64s(binary.LittleEndian.AppendUint32(buf, uint32(len(v))), v)
}
