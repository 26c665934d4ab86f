package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"plos/internal/compress"
)

// The wire codec is a hand-rolled little-endian binary format chosen over
// gob for three properties the protocol needs:
//
//   - canonical: a Message has exactly one encoding, and every byte string
//     DecodeMessage accepts re-encodes to the identical bytes. The fuzz
//     harness (FuzzMessageRoundTrip) leans on this — corruption anywhere in
//     a frame is either rejected or yields a Message that still round-trips.
//   - self-delimiting and bounded: every length is validated against the
//     remaining input before allocation, so hostile frames cannot make the
//     server allocate unbounded memory.
//   - stable: the byte layout is frozen by codecVersion rather than by Go's
//     type system, so server and clients can be built from different trees.
//
// There is one encoder, AppendMessage, which writes behind whatever its
// caller already put in the slice (a TCP connection's length prefix, in its
// own send buffer); EncodeMessage is AppendMessage into an exactly-sized
// fresh slice. There is one decoder, and nothing it returns points into the
// frame it read — a connection overwrites that frame on its next Recv.
// DecodeMessage hands out vectors its caller owns; a connection decodes into
// its own four (vecSlots) and lends them until its next Recv.
//
// Layout (all integers little-endian):
//
//	magic 'P' | version | Type i64 | Round i64 | Dim i64 | Samples i64 |
//	Labeled i64 | Users i64 | Seq i64 | Session i64 | Xi f64bits |
//	Reason u32+bytes | W0 vec | U vec | W vec | V vec |
//	Config presence byte [+ config block] [telemetry block]
//
// where vec = u32 count + count f64bits, and the config block is
// Lambda, Cl, Cu, Epsilon, Rho as f64bits, MaxCutIter, QPMaxIter as i64,
// BalanceGuard, WarmWorkingSets, Telemetry as strict 0/1 bytes.
//
// The telemetry block is strictly trailing and only ever present: a frame
// without telemetry simply ends after the config presence byte (or block),
// and one with it carries a 0x01 marker followed by nine i64 words
// (SolveNS, QPIters, Cuts, WarmHits, SignFlips, MsgsSent, MsgsRecv,
// BytesSent, BytesRecv) and EnergyJ as f64bits. A 0x00 marker is rejected —
// the absent encoding is zero bytes, keeping the codec canonical — and a
// peer that never sends telemetry emits frames with no trace of the block.
//
// Version 4 extends the layout for compressed parameter payloads and is
// emitted ONLY for frames that actually carry a negotiation or compression
// block — every other message still encodes as the byte-identical version 3
// above, so a compression-disabled deployment is indistinguishable from a
// v3 one on the wire. A v4 frame replaces everything after the config block
// with:
//
//	flags byte | [telemetry 9×i64 + f64] | [caps block] | [comp block]
//
// flags bit0 = telemetry present, bit1 = caps present, bit2 = comp present;
// other bits are rejected, and a v4 frame with neither caps nor comp is
// rejected too (it would have been encoded as v3 — canonical form). The
// caps block is Quant byte (0/8/16), TopK f64bits, Delta strict 0/1. The
// comp block is a slot presence byte (bit0..3 = W0, U, W, V; higher bits
// rejected) followed by one compress.Vec canonical block per present slot.
//
// Version history: v1 lacked the Seq and Session words (added with the
// fault-tolerance layer); v2 lacked the Telemetry config flag and the
// telemetry block (added with fleet tracing); v3 lacked compression. The
// decoder accepts versions 3 and 4 — a peer built before v4 rejects v4
// frames, which is safe because v4 frames are only ever sent after both
// ends confirmed compression in the hello exchange (see compress_conn.go).
const (
	codecMagic       = byte('P')
	codecVersion     = byte(3)
	codecVersionComp = byte(4)
	// maxFrame bounds a frame (64 MiB): far above any real model exchange,
	// far below anything that could hurt the host.
	maxFrame = 1 << 26

	flagTelemetry = byte(1 << 0)
	flagCaps      = byte(1 << 1)
	flagComp      = byte(1 << 2)
	flagMask      = flagTelemetry | flagCaps | flagComp
)

// CodecVersionBase and CodecVersionCompressed export the wire codec
// versions this build speaks, for build-identity surfaces (the
// plos_build_info gauge). The codec itself keeps using the private bytes.
const (
	CodecVersionBase       = int(codecVersion)
	CodecVersionCompressed = int(codecVersionComp)
)

// ErrCodec wraps every malformed-frame error from DecodeMessage.
var ErrCodec = errors.New("transport: malformed frame")

// EncodeMessage serializes m into the canonical wire form, in a slice of
// exactly the frame's size.
func EncodeMessage(m Message) []byte {
	return AppendMessage(make([]byte, 0, encodedSize(m)), m)
}

// Fixed-width block sizes of the layout above.
const (
	headerSize    = 2 + 8*8 + 8 // magic, version, eight i64 words, Xi
	configSize    = 5*8 + 2*8 + 3
	telemetrySize = 9*8 + 8
	capsSize      = 1 + 8 + 1
)

// encodedSize is len(EncodeMessage(m)), computed without encoding.
func encodedSize(m Message) int {
	n := headerSize + 4 + len(m.Reason) + 4*4 + 8*(len(m.W0)+len(m.U)+len(m.W)+len(m.V)) + 1
	if m.Config != nil {
		n += configSize
	}
	if m.Telemetry != nil {
		n += telemetrySize
	}
	if m.Caps == nil && m.Comp == nil {
		if m.Telemetry != nil {
			n++ // v3 telemetry marker
		}
		return n
	}
	n++ // v4 flags byte
	if m.Caps != nil {
		n += capsSize
	}
	if cp := m.Comp; cp != nil {
		n++ // slot presence byte
		for _, v := range [4]*compress.Vec{cp.W0, cp.U, cp.W, cp.V} {
			if v != nil {
				n += v.EncodedSize()
			}
		}
	}
	return n
}

// AppendMessage appends the canonical wire form of m to dst and returns the
// extended slice: dst ‖ EncodeMessage(m). A connection encodes into its own
// send buffer with it, behind whatever framing it already wrote there.
func AppendMessage(dst []byte, m Message) []byte {
	version := codecVersion
	if m.Caps != nil || m.Comp != nil {
		version = codecVersionComp
	}
	buf := append(dst, codecMagic, version)
	for _, v := range [8]int64{int64(m.Type), int64(m.Round), int64(m.Dim),
		int64(m.Samples), int64(m.Labeled), int64(m.Users), m.Seq, m.Session} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Xi))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Reason)))
	buf = append(buf, m.Reason...)
	for _, vec := range [4][]float64{m.W0, m.U, m.W, m.V} {
		buf = appendVec(buf, vec)
	}
	if m.Config == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		c := m.Config
		for _, v := range [5]float64{c.Lambda, c.Cl, c.Cu, c.Epsilon, c.Rho} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(c.MaxCutIter)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(c.QPMaxIter)))
		buf = append(buf, boolByte(c.BalanceGuard), boolByte(c.WarmWorkingSets), boolByte(c.Telemetry))
	}
	if version == codecVersion {
		if t := m.Telemetry; t != nil {
			buf = append(buf, 1)
			buf = appendTelemetry(buf, t)
		}
		return buf
	}
	flags := byte(0)
	if m.Telemetry != nil {
		flags |= flagTelemetry
	}
	if m.Caps != nil {
		flags |= flagCaps
	}
	if m.Comp != nil {
		flags |= flagComp
	}
	buf = append(buf, flags)
	if m.Telemetry != nil {
		buf = appendTelemetry(buf, m.Telemetry)
	}
	if c := m.Caps; c != nil {
		buf = append(buf, c.Quant)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.TopK))
		buf = append(buf, boolByte(c.Delta))
	}
	if cp := m.Comp; cp != nil {
		slots := [4]*compress.Vec{cp.W0, cp.U, cp.W, cp.V}
		present := byte(0)
		for i, v := range slots {
			if v != nil {
				present |= 1 << i
			}
		}
		buf = append(buf, present)
		for _, v := range slots {
			if v != nil {
				buf = v.AppendTo(buf)
			}
		}
	}
	return buf
}

// appendVec appends one vec block: the u32 count, then the elements. The
// element area is sized once, so the loop carries no per-element append.
func appendVec(buf []byte, vec []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vec)))
	off := len(buf)
	buf = slices.Grow(buf, 8*len(vec))[:off+8*len(vec)]
	out := buf[off:]
	for len(out) >= 8 && len(vec) > 0 {
		binary.LittleEndian.PutUint64(out[:8], math.Float64bits(vec[0]))
		out, vec = out[8:], vec[1:]
	}
	return buf
}

func appendTelemetry(buf []byte, t *WireTelemetry) []byte {
	for _, v := range [9]int64{t.SolveNS, t.QPIters, t.Cuts, t.WarmHits,
		t.SignFlips, t.MsgsSent, t.MsgsRecv, t.BytesSent, t.BytesRecv} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.EnergyJ))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// vecSlots stores the four dense vectors of one Message (W0, U, W, V) for
// whoever lends them out: a TCP connection decodes into its slots, a pipe
// endpoint and the Poison wrapper copy into theirs.
type vecSlots [4][]float64

// hold copies m's dense vectors into s and leaves m pointing at the copies.
func (s *vecSlots) hold(m *Message) {
	for i, v := range [4]*[]float64{&m.W0, &m.U, &m.W, &m.V} {
		if len(*v) > 0 {
			s[i] = append(s[i][:0], *v...)
			*v = s[i]
		}
	}
}

// decoder walks a frame with bounds checking; every take* fails cleanly at
// the end of input instead of panicking.
type decoder struct {
	data  []byte
	off   int
	slots *vecSlots // where the dense vectors go; nil: a fresh array each
}

func (d *decoder) remaining() int { return len(d.data) - d.off }

func (d *decoder) takeByte() (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCodec, d.off)
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *decoder) takeU64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCodec, d.off)
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) takeU32() (uint32, error) {
	if d.remaining() < 4 {
		return 0, fmt.Errorf("%w: truncated at byte %d", ErrCodec, d.off)
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) takeI64() (int64, error) {
	v, err := d.takeU64()
	return int64(v), err
}

func (d *decoder) takeF64() (float64, error) {
	v, err := d.takeU64()
	return math.Float64frombits(v), err
}

// takeVec decodes vector slot i. Values are copied out, never viewed in the
// frame; storage is sized only after the length was checked against the bytes
// that arrived, and a slot keeps its array up to maxRetained.
func (d *decoder) takeVec(i int) ([]float64, error) {
	n, err := d.takeU32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if int(n) > d.remaining()/8 {
		return nil, fmt.Errorf("%w: vector length %d exceeds remaining %d bytes", ErrCodec, n, d.remaining())
	}
	var vec []float64
	if d.slots != nil && 8*int(n) <= maxRetained {
		d.slots[i] = slices.Grow(d.slots[i][:0], int(n))
		vec = d.slots[i][:n]
	} else {
		vec = make([]float64, n)
	}
	src := d.data[d.off : d.off+8*len(vec)]
	for i := 0; len(src) >= 8 && i < len(vec); i++ {
		vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[:8]))
		src = src[8:]
	}
	d.off += 8 * len(vec)
	return vec, nil
}

// DecodeMessage parses one canonical frame. It never panics on corrupt
// input, rejects trailing bytes, and accepts exactly the strings
// EncodeMessage emits (so decode∘encode is the identity both ways). The
// returned vectors are the caller's.
func DecodeMessage(data []byte) (Message, error) {
	return decodeMessage(data, nil)
}

// decodeMessage is DecodeMessage, with the dense vectors in slots when non-nil.
func decodeMessage(data []byte, slots *vecSlots) (Message, error) {
	if len(data) > maxFrame {
		return Message{}, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrCodec, len(data), maxFrame)
	}
	d := &decoder{data: data, slots: slots}
	magic, err := d.takeByte()
	if err != nil {
		return Message{}, err
	}
	if magic != codecMagic {
		return Message{}, fmt.Errorf("%w: bad magic 0x%02x", ErrCodec, magic)
	}
	version, err := d.takeByte()
	if err != nil {
		return Message{}, err
	}
	if version != codecVersion && version != codecVersionComp {
		return Message{}, fmt.Errorf("%w: unsupported version %d", ErrCodec, version)
	}
	var m Message
	ints := make([]int64, 8)
	for i := range ints {
		if ints[i], err = d.takeI64(); err != nil {
			return Message{}, err
		}
	}
	m.Type = MsgType(ints[0])
	m.Round = int(ints[1])
	m.Dim = int(ints[2])
	m.Samples = int(ints[3])
	m.Labeled = int(ints[4])
	m.Users = int(ints[5])
	m.Seq = ints[6]
	m.Session = ints[7]
	if m.Xi, err = d.takeF64(); err != nil {
		return Message{}, err
	}
	rlen, err := d.takeU32()
	if err != nil {
		return Message{}, err
	}
	if int(rlen) > d.remaining() {
		return Message{}, fmt.Errorf("%w: reason length %d exceeds remaining %d bytes", ErrCodec, rlen, d.remaining())
	}
	m.Reason = string(d.data[d.off : d.off+int(rlen)])
	d.off += int(rlen)
	for i, dst := range [4]*[]float64{&m.W0, &m.U, &m.W, &m.V} {
		if *dst, err = d.takeVec(i); err != nil {
			return Message{}, err
		}
	}
	present, err := d.takeByte()
	if err != nil {
		return Message{}, err
	}
	switch present {
	case 0:
	case 1:
		var c WireConfig
		fs := []*float64{&c.Lambda, &c.Cl, &c.Cu, &c.Epsilon, &c.Rho}
		for _, f := range fs {
			if *f, err = d.takeF64(); err != nil {
				return Message{}, err
			}
		}
		var mi, qi int64
		if mi, err = d.takeI64(); err != nil {
			return Message{}, err
		}
		if qi, err = d.takeI64(); err != nil {
			return Message{}, err
		}
		c.MaxCutIter, c.QPMaxIter = int(mi), int(qi)
		for _, b := range []*bool{&c.BalanceGuard, &c.WarmWorkingSets, &c.Telemetry} {
			raw, err := d.takeByte()
			if err != nil {
				return Message{}, err
			}
			// Strict 0/1 keeps the encoding canonical: a 2 would decode to
			// true but re-encode as 1, breaking the round-trip identity.
			if raw > 1 {
				return Message{}, fmt.Errorf("%w: bool byte 0x%02x", ErrCodec, raw)
			}
			*b = raw == 1
		}
		m.Config = &c
	default:
		return Message{}, fmt.Errorf("%w: config presence byte 0x%02x", ErrCodec, present)
	}
	if version == codecVersion {
		if d.remaining() > 0 {
			marker, err := d.takeByte()
			if err != nil {
				return Message{}, err
			}
			// Only 0x01 is valid: absent telemetry is encoded as zero bytes,
			// so accepting a 0x00 marker would break the round-trip identity.
			if marker != 1 {
				return Message{}, fmt.Errorf("%w: telemetry marker 0x%02x", ErrCodec, marker)
			}
			if m.Telemetry, err = d.takeTelemetry(); err != nil {
				return Message{}, err
			}
		}
	} else {
		flags, err := d.takeByte()
		if err != nil {
			return Message{}, err
		}
		if flags&^flagMask != 0 {
			return Message{}, fmt.Errorf("%w: unknown flag bits 0x%02x", ErrCodec, flags)
		}
		// A v4 frame without caps or comp would have been encoded as v3:
		// rejecting it keeps the encoding canonical.
		if flags&(flagCaps|flagComp) == 0 {
			return Message{}, fmt.Errorf("%w: v4 frame without caps or compression block", ErrCodec)
		}
		if flags&flagTelemetry != 0 {
			if m.Telemetry, err = d.takeTelemetry(); err != nil {
				return Message{}, err
			}
		}
		if flags&flagCaps != 0 {
			var c compress.Config
			if c.Quant, err = d.takeByte(); err != nil {
				return Message{}, err
			}
			if c.Quant != 0 && c.Quant != 8 && c.Quant != 16 {
				return Message{}, fmt.Errorf("%w: caps quantization width %d", ErrCodec, c.Quant)
			}
			if c.TopK, err = d.takeF64(); err != nil {
				return Message{}, err
			}
			raw, err := d.takeByte()
			if err != nil {
				return Message{}, err
			}
			if raw > 1 {
				return Message{}, fmt.Errorf("%w: bool byte 0x%02x", ErrCodec, raw)
			}
			c.Delta = raw == 1
			m.Caps = &c
		}
		if flags&flagComp != 0 {
			present, err := d.takeByte()
			if err != nil {
				return Message{}, err
			}
			if present&^0x0f != 0 {
				return Message{}, fmt.Errorf("%w: compression slot byte 0x%02x", ErrCodec, present)
			}
			var cp WireComp
			for i, dst := range []**compress.Vec{&cp.W0, &cp.U, &cp.W, &cp.V} {
				if present&(1<<i) == 0 {
					continue
				}
				v, n, err := compress.UnmarshalVec(d.data[d.off:])
				if err != nil {
					return Message{}, fmt.Errorf("%w: slot %d: %v", ErrCodec, i, err)
				}
				d.off += n
				*dst = v
			}
			m.Comp = &cp
		}
	}
	if d.remaining() != 0 {
		return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrCodec, d.remaining())
	}
	return m, nil
}

func (d *decoder) takeTelemetry() (*WireTelemetry, error) {
	var t WireTelemetry
	var err error
	for _, dst := range []*int64{&t.SolveNS, &t.QPIters, &t.Cuts, &t.WarmHits,
		&t.SignFlips, &t.MsgsSent, &t.MsgsRecv, &t.BytesSent, &t.BytesRecv} {
		if *dst, err = d.takeI64(); err != nil {
			return nil, err
		}
	}
	if t.EnergyJ, err = d.takeF64(); err != nil {
		return nil, err
	}
	return &t, nil
}
