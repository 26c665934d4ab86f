// Checkpoint persistence: a versioned, canonical binary snapshot of the
// server's trainer state, written atomically after CCCP rounds so a crashed
// server can resume mid-training (see FTConfig.CheckpointPath / Restore).
//
// Layout (all integers little-endian, version 1):
//
//	magic 'K' | version u8
//	epoch i64 | dim i64 | seed i64 | users u32
//	w0 vec | objective vec
//	per user:
//	  session i64 | dropped u8 | stale i64
//	  us optvec | lastW optvec | lastV optvec | lastXi f64
//
// where vec = u32 count + that many f64 and optvec = presence u8 (0 or 1)
// followed by a vec when present. The encoding is canonical: decode is
// strict (exact bools, no trailing bytes), so decode∘encode is the identity
// on every accepted input (pinned by FuzzCheckpointRoundTrip).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"plos/internal/mat"
)

// Checkpoint is a snapshot of the server's trainer state after Epoch
// completed CCCP rounds. All per-user slices are indexed by user id and have
// identical lengths.
type Checkpoint struct {
	Epoch int   // completed CCCP rounds
	Dim   int   // feature dimension
	Seed  int64 // session-token seed (continues the stream on re-save)
	W0    mat.Vector
	// Objective is the objective history, one entry per completed round;
	// handed to optimize.CCCP as the prior history it replays the
	// convergence decisions.
	Objective []float64
	Sessions  []int64
	Dropped   []bool
	Stale     []int
	Us        []mat.Vector // scaled duals; nil where none recorded
	LastW     []mat.Vector // last reported hyperplanes; nil before round 1
	LastV     []mat.Vector
	LastXi    []float64
}

// ErrCheckpoint is wrapped by every checkpoint decode failure.
var ErrCheckpoint = errors.New("protocol: malformed checkpoint")

const (
	ckMagic   = byte('K')
	ckVersion = byte(1)
	// maxCheckpoint bounds how much a decoder will allocate.
	maxCheckpoint = 64 << 20
	// ckUserFloor is the minimum encoded size of one user entry; used to
	// bound the user count against the remaining buffer before allocating.
	ckUserFloor = 8 + 1 + 8 + 1 + 1 + 1 + 8
)

// MarshalCheckpoint encodes ck into its canonical byte representation.
func MarshalCheckpoint(ck *Checkpoint) ([]byte, error) {
	t := len(ck.Sessions)
	if len(ck.Dropped) != t || len(ck.Stale) != t || len(ck.Us) != t ||
		len(ck.LastW) != t || len(ck.LastV) != t || len(ck.LastXi) != t {
		return nil, fmt.Errorf("protocol: MarshalCheckpoint: inconsistent per-user slice lengths")
	}
	buf := []byte{ckMagic, ckVersion}
	for _, v := range []int64{int64(ck.Epoch), int64(ck.Dim), ck.Seed} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
	buf = ckAppendVec(buf, ck.W0)
	buf = ckAppendVec(buf, ck.Objective)
	for i := 0; i < t; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.Sessions[i]))
		buf = ckAppendBool(buf, ck.Dropped[i])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.Stale[i]))
		buf = ckAppendOptVec(buf, ck.Us[i])
		buf = ckAppendOptVec(buf, ck.LastW[i])
		buf = ckAppendOptVec(buf, ck.LastV[i])
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ck.LastXi[i]))
	}
	return buf, nil
}

func ckAppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func ckAppendVec(buf []byte, v []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// ckAppendOptVec writes a presence byte, then the vector when non-nil. An
// empty non-nil vector is normalized to absent so the encoding stays
// canonical (the decoder maps presence 0 to nil).
func ckAppendOptVec(buf []byte, v mat.Vector) []byte {
	if len(v) == 0 {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	return ckAppendVec(buf, v)
}

// ckDecoder is a strict bounded cursor over a checkpoint buffer.
type ckDecoder struct {
	buf []byte
	off int
	err error
}

func (d *ckDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCheckpoint, fmt.Sprintf(format, args...))
	}
}

func (d *ckDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("truncated at offset %d (want %d bytes)", d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *ckDecoder) i64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (d *ckDecoder) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *ckDecoder) u32() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return int(binary.LittleEndian.Uint32(b))
}

func (d *ckDecoder) boolByte() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("byte %d at offset %d is not a bool", b[0], d.off-1)
		return false
	}
}

func (d *ckDecoder) vec() []float64 {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > (len(d.buf)-d.off)/8 {
		d.fail("vector of %d elements exceeds remaining %d bytes", n, len(d.buf)-d.off)
		return nil
	}
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = d.f64()
	}
	return v
}

func (d *ckDecoder) optVec() mat.Vector {
	present := d.boolByte()
	if d.err != nil || !present {
		return nil
	}
	v := d.vec()
	if d.err == nil && v == nil {
		// presence byte 1 followed by length 0 would re-encode as absent.
		d.fail("present vector with zero length at offset %d", d.off)
	}
	return v
}

// UnmarshalCheckpoint decodes a checkpoint, rejecting anything that is not
// the canonical encoding of some Checkpoint.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) > maxCheckpoint {
		return nil, fmt.Errorf("%w: %d bytes exceeds limit %d", ErrCheckpoint, len(data), maxCheckpoint)
	}
	if len(data) < 2 || data[0] != ckMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCheckpoint)
	}
	if data[1] != ckVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpoint, data[1])
	}
	d := &ckDecoder{buf: data, off: 2}
	ck := &Checkpoint{
		Epoch: int(d.i64()),
		Dim:   int(d.i64()),
		Seed:  d.i64(),
	}
	t := d.u32()
	if d.err == nil && t > (len(d.buf)-d.off)/ckUserFloor {
		d.fail("user count %d exceeds remaining %d bytes", t, len(d.buf)-d.off)
	}
	ck.W0 = d.vec()
	ck.Objective = d.vec()
	if d.err != nil {
		return nil, d.err
	}
	ck.Sessions = make([]int64, t)
	ck.Dropped = make([]bool, t)
	ck.Stale = make([]int, t)
	ck.Us = make([]mat.Vector, t)
	ck.LastW = make([]mat.Vector, t)
	ck.LastV = make([]mat.Vector, t)
	ck.LastXi = make([]float64, t)
	for i := 0; i < t && d.err == nil; i++ {
		ck.Sessions[i] = d.i64()
		ck.Dropped[i] = d.boolByte()
		ck.Stale[i] = int(d.i64())
		ck.Us[i] = d.optVec()
		ck.LastW[i] = d.optVec()
		ck.LastV[i] = d.optVec()
		ck.LastXi[i] = d.f64()
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpoint, len(d.buf)-d.off)
	}
	return ck, nil
}

// validateForRestore checks the semantic invariants a checkpoint must hold
// before the server trusts it to rebuild trainer state.
func (ck *Checkpoint) validateForRestore() error {
	if ck.Dim <= 0 {
		return fmt.Errorf("%w: non-positive dimension %d", ErrCheckpoint, ck.Dim)
	}
	if ck.Epoch < 0 {
		return fmt.Errorf("%w: negative epoch %d", ErrCheckpoint, ck.Epoch)
	}
	if len(ck.W0) != ck.Dim {
		return fmt.Errorf("%w: |w0| = %d, dim = %d", ErrCheckpoint, len(ck.W0), ck.Dim)
	}
	if len(ck.Objective) != ck.Epoch {
		return fmt.Errorf("%w: %d objective entries for epoch %d", ErrCheckpoint, len(ck.Objective), ck.Epoch)
	}
	if len(ck.Sessions) == 0 {
		return fmt.Errorf("%w: no users", ErrCheckpoint)
	}
	seen := make(map[int64]struct{}, len(ck.Sessions))
	for t := range ck.Sessions {
		if !ck.Dropped[t] {
			if ck.Sessions[t] == 0 {
				return fmt.Errorf("%w: live user %d has no session token", ErrCheckpoint, t)
			}
			if _, dup := seen[ck.Sessions[t]]; dup {
				return fmt.Errorf("%w: duplicate session token for user %d", ErrCheckpoint, t)
			}
			seen[ck.Sessions[t]] = struct{}{}
		}
		for _, v := range []mat.Vector{ck.Us[t], ck.LastW[t], ck.LastV[t]} {
			if v != nil && len(v) != ck.Dim {
				return fmt.Errorf("%w: user %d vector length %d, dim %d", ErrCheckpoint, t, len(v), ck.Dim)
			}
		}
	}
	return nil
}

// SaveCheckpoint writes ck to path atomically: encode, write to a temp file
// in the same directory, fsync, rename. A reader never observes a torn
// checkpoint.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	buf, err := MarshalCheckpoint(ck)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("protocol: SaveCheckpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("protocol: SaveCheckpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("protocol: SaveCheckpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("protocol: SaveCheckpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("protocol: SaveCheckpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and decodes the checkpoint at path.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("protocol: LoadCheckpoint: %w", err)
	}
	ck, err := UnmarshalCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("protocol: LoadCheckpoint %s: %w", path, err)
	}
	return ck, nil
}
