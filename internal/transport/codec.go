package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"plos/internal/compress"
	"plos/internal/wire"
)

// The wire codec is a hand-rolled little-endian binary format chosen over
// gob for three properties the protocol needs:
//
//   - canonical: a Message has exactly one encoding, and every byte string
//     DecodeMessage accepts re-encodes to the identical bytes. The fuzz
//     harness (FuzzMessageRoundTrip) leans on this — corruption anywhere in
//     a frame is either rejected or yields a Message that still round-trips.
//   - self-delimiting and bounded: every length is validated against the
//     remaining input before allocation (the decoder reads through
//     wire.Reader), so hostile frames cannot make the server allocate
//     unbounded memory.
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
		buf = wire.AppendVec(buf, vec)
	}
	buf = wire.AppendBool(buf, m.Config != nil)
	if c := m.Config; c != nil {
		buf = wire.AppendF64s(buf, []float64{c.Lambda, c.Cl, c.Cu, c.Epsilon, c.Rho})
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(c.MaxCutIter)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(c.QPMaxIter)))
		buf = wire.AppendBool(buf, c.BalanceGuard)
		buf = wire.AppendBool(buf, c.WarmWorkingSets)
		buf = wire.AppendBool(buf, c.Telemetry)
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
		buf = wire.AppendBool(buf, c.Delta)
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

func appendTelemetry(buf []byte, t *WireTelemetry) []byte {
	for _, v := range [9]int64{t.SolveNS, t.QPIters, t.Cuts, t.WarmHits,
		t.SignFlips, t.MsgsSent, t.MsgsRecv, t.BytesSent, t.BytesRecv} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.EnergyJ))
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
	r := wire.NewReader(data)
	m := readMessage(&r, slots)
	if err := r.End(); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	return m, nil
}

// readMessage reads the layout above straight through; a failure sticks in r.
func readMessage(r *wire.Reader, slots *vecSlots) (m Message) {
	if magic := r.U8(); magic != codecMagic {
		r.Fail("bad magic 0x%02x", magic)
		return m
	}
	version := r.U8()
	if version != codecVersion && version != codecVersionComp {
		r.Fail("unsupported version %d", version)
		return m
	}
	// The calls of one statement run left to right (the spec's order of
	// evaluation), so each statement here reads its fields in wire order.
	m.Type, m.Round, m.Dim, m.Samples = MsgType(r.I64()), int(r.I64()), int(r.I64()), int(r.I64())
	m.Labeled, m.Users, m.Seq, m.Session = int(r.I64()), int(r.I64()), r.I64(), r.I64()
	m.Xi = r.F64()
	m.Reason = string(r.Bytes(r.Count(uint64(r.U32()), 1)))
	// Values are copied out, never viewed in the frame. A slot keeps its
	// array up to maxRetained.
	for i, dst := range [4]*[]float64{&m.W0, &m.U, &m.W, &m.V} {
		var keep []float64
		if slots != nil {
			keep = slots[i]
		}
		*dst = r.Vec(keep)
		if slots != nil && len(*dst) > 0 && 8*len(*dst) <= maxRetained {
			slots[i] = *dst
		}
	}
	switch present := r.U8(); present {
	case 0:
	case 1:
		m.Config = &WireConfig{Lambda: r.F64(), Cl: r.F64(), Cu: r.F64(), Epsilon: r.F64(), Rho: r.F64(),
			MaxCutIter: int(r.I64()), QPMaxIter: int(r.I64()),
			BalanceGuard: r.Bool(), WarmWorkingSets: r.Bool(), Telemetry: r.Bool()}
	default:
		r.Fail("config presence byte 0x%02x", present)
	}
	if version == codecVersion {
		// Only a 0x01 marker is valid: absent telemetry is encoded as zero
		// bytes, so accepting a 0x00 marker would break the round-trip identity.
		if r.Len() > 0 {
			if marker := r.U8(); marker != 1 {
				r.Fail("telemetry marker 0x%02x", marker)
			}
			m.Telemetry = readTelemetry(r)
		}
		return m
	}
	flags := r.U8()
	if flags&^flagMask != 0 {
		r.Fail("unknown flag bits 0x%02x", flags)
	}
	// A v4 frame without caps or comp would have been encoded as v3:
	// rejecting it keeps the encoding canonical.
	if flags&(flagCaps|flagComp) == 0 {
		r.Fail("v4 frame without caps or compression block")
	}
	if flags&flagTelemetry != 0 {
		m.Telemetry = readTelemetry(r)
	}
	if flags&flagCaps != 0 {
		m.Caps = &compress.Config{Quant: r.U8(), TopK: r.F64(), Delta: r.Bool()}
		if q := m.Caps.Quant; q != 0 && q != 8 && q != 16 {
			r.Fail("caps quantization width %d", q)
		}
	}
	if flags&flagComp != 0 {
		present := r.U8()
		if present&^0x0f != 0 {
			r.Fail("compression slot byte 0x%02x", present)
		}
		m.Comp = &WireComp{}
		for i, dst := range [4]**compress.Vec{&m.Comp.W0, &m.Comp.U, &m.Comp.W, &m.Comp.V} {
			if present&(1<<i) != 0 {
				*dst = compress.ReadVec(r)
			}
		}
	}
	return m
}

func readTelemetry(r *wire.Reader) *WireTelemetry {
	return &WireTelemetry{SolveNS: r.I64(), QPIters: r.I64(), Cuts: r.I64(), WarmHits: r.I64(),
		SignFlips: r.I64(), MsgsSent: r.I64(), MsgsRecv: r.I64(), BytesSent: r.I64(), BytesRecv: r.I64(),
		EnergyJ: r.F64()}
}
