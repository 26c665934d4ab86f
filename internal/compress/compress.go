// Package compress implements the codec v4 parameter-payload schemes of
// the wire protocol: linear int8/int16 quantization with error-feedback
// accumulators, top-k sparsification with varint gap-encoded indices, and
// delta coding against the last reconstruction of the same stream. The
// schemes compose (quantize the top-k entries, or a delta; never top-k with
// delta) and are negotiated per connection in the hello exchange — see
// docs/WIRE_COMPRESSION.md.
//
// The package is pure state-machine math with a canonical byte form for
// one compressed vector (Vec); framing, negotiation and transport wiring
// live in internal/transport. Sender (Encoder) and receiver (Decoder)
// compute bit-identical reconstructions, which is what makes the
// error-feedback and delta references on the two ends agree.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"plos/internal/wire"
)

// Config selects the schemes applied to parameter payloads. The zero value
// disables compression entirely. It doubles as the capability block of the
// codec v4 hello negotiation: a client's hello carries its Config as the
// offer, the server's reply the intersected answer.
type Config struct {
	// Quant is the linear quantization width in bits: 0 (off), 8 or 16.
	// Quantized entries are sent as int8/int16 plus one float64 scale.
	Quant uint8
	// TopK keeps the ceil(TopK·dim) largest-magnitude coordinates of each
	// vector: 0 disables, otherwise (0, 1]. Dropped coordinates feed the
	// error-feedback accumulator, so they are sent eventually, not lost.
	TopK float64
	// Delta codes each vector against the stream's previous reconstruction,
	// so quantization sees small round-to-round residuals instead of raw
	// weights. By itself it saves no bytes — compose it with Quant/TopK.
	Delta bool
}

// Enabled reports whether the configuration compresses anything.
func (c Config) Enabled() bool { return c.Quant != 0 || c.TopK != 0 || c.Delta }

// Validate rejects widths and fractions the wire format cannot carry, and
// delta composed with top-k, which can destabilize the ADMM loop. The codec
// still decodes such frames; no config may produce them.
func (c Config) Validate() error {
	if c.Quant != 0 && c.Quant != 8 && c.Quant != 16 {
		return fmt.Errorf("compress: quantization width must be 0, 8 or 16, got %d", c.Quant)
	}
	if c.TopK < 0 || c.TopK > 1 {
		return fmt.Errorf("compress: top-k fraction must be in (0, 1], got %g", c.TopK)
	}
	if c.Delta && c.TopK != 0 {
		return errors.New(`compress: delta does not compose with topk (docs/WIRE_COMPRESSION.md, "Do not compose delta with topk")`)
	}
	return nil
}

// String renders the canonical flag form ("q8,topk:0.25" or "q8,delta";
// "off" when disabled) — the inverse of Parse.
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	var parts []string
	if c.Quant != 0 {
		parts = append(parts, fmt.Sprintf("q%d", c.Quant))
	}
	if c.TopK != 0 {
		parts = append(parts, "topk:"+strconv.FormatFloat(c.TopK, 'g', -1, 64))
	}
	if c.Delta {
		parts = append(parts, "delta")
	}
	return strings.Join(parts, ",")
}

// Parse reads the composable -compress flag syntax: terms "q8", "q16",
// "topk:<fraction>" and "delta" joined by "," or "+" (both accepted so the
// flag reads naturally either way). "" and "off" mean disabled. The result
// passes Validate.
func Parse(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return c, nil
	}
	for _, term := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == '+' }) {
		switch {
		case term == "q8", term == "q16":
			if c.Quant != 0 {
				return Config{}, fmt.Errorf("compress: %q: q8 and q16 are mutually exclusive", spec)
			}
			if term == "q8" {
				c.Quant = 8
			} else {
				c.Quant = 16
			}
		case strings.HasPrefix(term, "topk:"):
			f, err := strconv.ParseFloat(term[len("topk:"):], 64)
			if err != nil || f <= 0 || f > 1 {
				return Config{}, fmt.Errorf("compress: %q: top-k fraction must be in (0, 1]", term)
			}
			c.TopK = f
		case term == "delta":
			c.Delta = true
		default:
			return Config{}, fmt.Errorf("compress: unknown term %q (want q8, q16, topk:<f> or delta)", term)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Intersect returns the schemes both sides agree on: a quantization width
// or top-k fraction is active only when offered identically by both, delta
// when both enable it. The result of intersecting anything with the zero
// Config is the zero Config, which is how un-negotiated connections fall
// back to dense frames.
func Intersect(mine, offer Config) Config {
	var c Config
	if mine.Quant == offer.Quant {
		c.Quant = mine.Quant
	}
	if mine.TopK == offer.TopK {
		c.TopK = mine.TopK
	}
	c.Delta = mine.Delta && offer.Delta
	return c
}

// Scheme bits of a Vec: which transforms this particular vector carries.
// Delta is per-frame (the first vector of a stream has no reference and is
// coded raw even under a delta Config), so the bits travel with the data.
const (
	schemeQ8 byte = 1 << iota
	schemeQ16
	schemeTopK
	schemeDelta

	schemeMask = schemeQ8 | schemeQ16 | schemeTopK | schemeDelta
)

// Vec is one compressed parameter vector as it travels inside a codec v4
// frame. Exactly one byte string encodes a given Vec (canonical form), and
// every byte string ReadVec accepts re-marshals to identical bytes —
// the same contract the surrounding message codec keeps.
//
// Layout (little-endian):
//
//	dim u32 | scheme byte | [scale f64 if quantized] |
//	[k u32 + k uvarint index gaps if top-k] | values
//
// where values are k (or dim without top-k) entries of int8 (q8), int16
// (q16) or f64 bits (unquantized), and index gaps are successive
// differences of the strictly increasing kept indices, offset so every gap
// is >= 1 (first gap = index+1). Varints must be minimal-length.
type Vec struct {
	Dim    int
	Scheme byte
	// Scale is the quantization step (meaningful iff a quant bit is set):
	// value = Q[i] · Scale.
	Scale float64
	// Index holds the kept coordinates, strictly increasing (iff top-k).
	Index []int32
	// Q holds quantized entries (iff quantized), F raw entries otherwise;
	// the populated one has len == len(Index), or Dim without top-k.
	Q []int16
	F []float64
}

// ErrMalformed wraps every malformed-block error from Decoder.Decode.
var ErrMalformed = errors.New("compress: malformed block")

// maxDim bounds a single vector (2^24 entries = 128 MiB dense); real model
// exchanges are thousands of entries. The message codec's frame limit is
// the effective bound — this one only keeps arithmetic comfortable.
const maxDim = 1 << 24

func (v *Vec) nnz() int {
	if v.Scheme&schemeTopK != 0 {
		return len(v.Index)
	}
	return v.Dim
}

// EncodedSize returns the exact marshaled size in bytes.
func (v *Vec) EncodedSize() int {
	size := 4 + 1 // dim + scheme
	if v.Scheme&(schemeQ8|schemeQ16) != 0 {
		size += 8
	}
	if v.Scheme&schemeTopK != 0 {
		size += 4
		prev := int32(-1)
		for _, ix := range v.Index {
			size += wire.UvarintLen(uint64(ix - prev))
			prev = ix
		}
	}
	switch {
	case v.Scheme&schemeQ8 != 0:
		size += v.nnz()
	case v.Scheme&schemeQ16 != 0:
		size += 2 * v.nnz()
	default:
		size += 8 * v.nnz()
	}
	return size
}

// AppendTo appends the canonical byte form to buf and returns the result.
func (v *Vec) AppendTo(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Dim))
	buf = append(buf, v.Scheme)
	if v.Scheme&(schemeQ8|schemeQ16) != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Scale))
	}
	if v.Scheme&schemeTopK != 0 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Index)))
		prev := int32(-1)
		for _, ix := range v.Index {
			buf = binary.AppendUvarint(buf, uint64(ix-prev))
			prev = ix
		}
	}
	switch {
	case v.Scheme&schemeQ8 != 0:
		for _, q := range v.Q {
			buf = append(buf, byte(int8(q)))
		}
	case v.Scheme&schemeQ16 != 0:
		for _, q := range v.Q {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(q))
		}
	default:
		for _, f := range v.F {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	return buf
}

// ReadVec reads one Vec at r's cursor, or records in r why it cannot and
// returns nil. Every length is checked against the remaining input before
// allocation, varints must be minimal, an index gap is bounded by dim before
// it becomes an index, and indices strictly increase — so corruption
// anywhere is rejected, never misparsed, and an accepted block re-marshals
// byte-identically.
func ReadVec(r *wire.Reader) *Vec {
	dim := r.U32()
	v := &Vec{Dim: int(dim), Scheme: r.U8()}
	switch {
	case r.Err() != nil:
		return nil
	case dim == 0 || dim > maxDim:
		r.Fail("vector dim %d", dim)
		return nil
	case v.Scheme&^schemeMask != 0:
		r.Fail("unknown scheme bits 0x%02x", v.Scheme)
		return nil
	// A zero scheme byte is legal: it is the raw full-vector form a delta
	// stream's first frame takes before a reference exists.
	case v.Scheme&schemeQ8 != 0 && v.Scheme&schemeQ16 != 0:
		r.Fail("both q8 and q16 bits set")
		return nil
	}
	if v.Scheme&(schemeQ8|schemeQ16) != 0 {
		v.Scale = r.F64()
	}
	nnz := v.Dim
	if v.Scheme&schemeTopK != 0 {
		k := r.U32()
		if k == 0 || k > dim {
			r.Fail("top-k count %d of dim %d", k, dim)
			return nil
		}
		v.Index = make([]int32, r.Count(uint64(k), 1)) // each gap is at least one byte
		prev := int64(-1)
		for i := range v.Index {
			// Bounded before the sum: a gap near 2⁶⁴ must not wrap into range.
			gap := r.Uvarint()
			if gap == 0 || gap >= uint64(int64(dim)-prev) {
				r.Fail("index gap %d is zero or reaches past dim %d", i, dim)
				return nil
			}
			prev += int64(gap)
			v.Index[i] = int32(prev)
		}
		nnz = len(v.Index)
	}
	switch {
	case v.Scheme&schemeQ8 != 0:
		b := r.Bytes(r.Count(uint64(nnz), 1))
		v.Q = make([]int16, len(b))
		for i, x := range b {
			v.Q[i] = int16(int8(x))
		}
	case v.Scheme&schemeQ16 != 0:
		v.Q = make([]int16, r.Count(uint64(nnz), 2))
		for i := range v.Q {
			v.Q[i] = int16(r.U16())
		}
	default:
		v.F = make([]float64, r.Count(uint64(nnz), 8))
		r.F64s(v.F)
	}
	if r.Err() != nil {
		return nil
	}
	return v
}

// Slot identifies one parameter stream within a connection direction. The
// error-feedback accumulator and delta reference are per slot, so the four
// vector fields of a message never share state.
type Slot int

const (
	SlotW0 Slot = iota
	SlotU
	SlotW
	SlotV
	numSlots
)

// DenseWireBytes is the wire-estimate size of a dense vector payload (the
// 8-bytes-per-entry convention of Message.WireSize), used for raw-vs-
// compressed accounting.
func DenseWireBytes(dim int) int { return 8 * dim }

type encState struct {
	ef  []float64 // error-feedback accumulator, x domain
	ref []float64 // last reconstruction (delta base), nil before first frame
}

// Encoder is the sender half of one connection direction: it owns the
// per-slot error-feedback accumulators and delta references. Not safe for
// concurrent use — a connection direction has exactly one sender.
type Encoder struct {
	cfg Config
	st  [numSlots]encState
}

// NewEncoder creates an encoder for the negotiated configuration.
func NewEncoder(cfg Config) *Encoder { return &Encoder{cfg: cfg} }

// Encode compresses x on the given stream and advances the stream state
// (error feedback absorbs this frame's loss; the delta reference becomes
// this frame's reconstruction). x is not mutated. A disabled configuration
// or empty input returns nil, leaving the stream untouched.
func (e *Encoder) Encode(slot Slot, x []float64) *Vec {
	if e == nil || !e.cfg.Enabled() || len(x) == 0 {
		return nil
	}
	st := &e.st[slot]
	if len(st.ef) != len(x) {
		// First frame, or the stream's dimension changed (a new training
		// run on a reused connection): start fresh.
		st.ef = make([]float64, len(x))
		st.ref = nil
	}
	dim := len(x)
	work := make([]float64, dim)
	for i, xi := range x {
		work[i] = xi + st.ef[i]
	}
	v := &Vec{Dim: dim}
	target := work
	if e.cfg.Delta && st.ref != nil {
		v.Scheme |= schemeDelta
		target = make([]float64, dim)
		for i := range work {
			target[i] = work[i] - st.ref[i]
		}
	}
	idx := denseIndices(dim)
	if e.cfg.TopK > 0 {
		if k := topkCount(e.cfg.TopK, dim); k < dim {
			v.Scheme |= schemeTopK
			idx = topkIndices(target, k)
			v.Index = idx
		}
	}
	kept := make([]float64, len(idx))
	for i, ix := range idx {
		kept[i] = target[ix]
	}
	recon := make([]float64, dim)
	switch e.cfg.Quant {
	case 8, 16:
		if e.cfg.Quant == 8 {
			v.Scheme |= schemeQ8
		} else {
			v.Scheme |= schemeQ16
		}
		v.Scale, v.Q = quantize(kept, e.cfg.Quant)
		for i, ix := range idx {
			recon[ix] = float64(v.Q[i]) * v.Scale
		}
	default:
		v.F = kept
		for i, ix := range idx {
			recon[ix] = kept[i]
		}
	}
	if v.Scheme&schemeDelta != 0 {
		for i := range recon {
			recon[i] += st.ref[i]
		}
	}
	for i := range work {
		st.ef[i] = work[i] - recon[i]
	}
	if e.cfg.Delta {
		st.ref = recon
	}
	return v
}

// ResidualNorm is the L2 norm of the error-feedback accumulators across
// all slots — the quant_error_feedback_norm gauge.
func (e *Encoder) ResidualNorm() float64 {
	if e == nil {
		return 0
	}
	sum := 0.0
	for s := range e.st {
		for _, r := range e.st[s].ef {
			sum += float64(r * r)
		}
	}
	return math.Sqrt(sum)
}

func denseIndices(dim int) []int32 {
	idx := make([]int32, dim)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

func topkCount(frac float64, dim int) int {
	k := int(math.Ceil(frac * float64(dim)))
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// topkIndices returns the k indices of largest |x|, ascending. Ties break
// toward the lower index, so selection is deterministic.
func topkIndices(x []float64, k int) []int32 {
	ord := denseIndices(len(x))
	sort.Slice(ord, func(a, b int) bool {
		va, vb := math.Abs(x[ord[a]]), math.Abs(x[ord[b]])
		if va != vb {
			return va > vb
		}
		return ord[a] < ord[b]
	})
	idx := append([]int32(nil), ord[:k]...)
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

// quantize maps kept values onto the signed grid of the given width with a
// shared scale = maxAbs/qmax. Rounding is math.Round and out-of-grid
// results (NaN/Inf inputs) clamp, so the mapping is deterministic.
func quantize(kept []float64, width uint8) (float64, []int16) {
	qmax := 127.0
	if width == 16 {
		qmax = 32767
	}
	maxAbs := 0.0
	for _, f := range kept {
		if a := math.Abs(f); a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / qmax
	q := make([]int16, len(kept))
	if scale == 0 {
		return 0, q
	}
	for i, f := range kept {
		qf := math.Round(f / scale)
		if !(qf >= -qmax) { // catches NaN too
			qf = -qmax
		} else if qf > qmax {
			qf = qmax
		}
		q[i] = int16(qf)
	}
	return scale, q
}

// ErrNoDeltaRef is returned when a delta-coded frame arrives on a stream
// with no prior reconstruction to apply it to — a protocol violation (the
// encoder only sets the delta bit once a reference exists).
var ErrNoDeltaRef = errors.New("compress: delta frame without a reference")

// Decoder is the receiver half of one connection direction: it replays the
// encoder's reconstructions, keeping the delta references in lockstep. Not
// safe for concurrent use — a direction has exactly one receiver.
type Decoder struct {
	ref [numSlots][]float64
}

// NewDecoder creates a decoder. The configuration needs no parameters:
// every frame describes its own transforms via the scheme bits.
func NewDecoder() *Decoder { return &Decoder{} }

// Decode reconstructs the vector carried by v on the given stream and
// advances the delta reference. The result is freshly allocated.
func (d *Decoder) Decode(slot Slot, v *Vec) ([]float64, error) {
	if v == nil {
		return nil, nil
	}
	if v.Dim <= 0 || v.Dim > maxDim {
		return nil, fmt.Errorf("%w: vector dim %d", ErrMalformed, v.Dim)
	}
	recon := make([]float64, v.Dim)
	idx := v.Index
	if v.Scheme&schemeTopK == 0 {
		idx = denseIndices(v.Dim)
	}
	if v.Scheme&(schemeQ8|schemeQ16) != 0 {
		if len(v.Q) != len(idx) {
			return nil, fmt.Errorf("%w: %d quantized values for %d indices", ErrMalformed, len(v.Q), len(idx))
		}
		for i, ix := range idx {
			if ix < 0 || int(ix) >= v.Dim {
				return nil, fmt.Errorf("%w: index %d out of range", ErrMalformed, ix)
			}
			recon[ix] = float64(v.Q[i]) * v.Scale
		}
	} else {
		if len(v.F) != len(idx) {
			return nil, fmt.Errorf("%w: %d values for %d indices", ErrMalformed, len(v.F), len(idx))
		}
		for i, ix := range idx {
			if ix < 0 || int(ix) >= v.Dim {
				return nil, fmt.Errorf("%w: index %d out of range", ErrMalformed, ix)
			}
			recon[ix] = v.F[i]
		}
	}
	if v.Scheme&schemeDelta != 0 {
		ref := d.ref[slot]
		if len(ref) != v.Dim {
			return nil, ErrNoDeltaRef
		}
		for i := range recon {
			recon[i] += ref[i]
		}
	}
	d.ref[slot] = recon
	return append([]float64(nil), recon...), nil
}
