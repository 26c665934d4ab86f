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
// followed by a vec when present. The encoding is canonical: decode reads
// through the strict wire.Reader (exact bools, no trailing bytes), so
// decode∘encode is the identity on every accepted input (pinned by
// FuzzCheckpointRoundTrip).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"plos/internal/mat"
	"plos/internal/wire"
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
	buf = wire.AppendVec(buf, ck.W0)
	buf = wire.AppendVec(buf, ck.Objective)
	for i := 0; i < t; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.Sessions[i]))
		buf = wire.AppendBool(buf, ck.Dropped[i])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(ck.Stale[i]))
		for _, v := range [3]mat.Vector{ck.Us[i], ck.LastW[i], ck.LastV[i]} {
			// An empty vector is written absent: the decoder maps absent to
			// nil, so the encoding stays canonical.
			buf = wire.AppendBool(buf, len(v) > 0)
			if len(v) > 0 {
				buf = wire.AppendVec(buf, v)
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ck.LastXi[i]))
	}
	return buf, nil
}

// UnmarshalCheckpoint decodes a checkpoint, rejecting anything that is not
// the canonical encoding of some Checkpoint.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) > maxCheckpoint {
		return nil, fmt.Errorf("%w: %d bytes exceeds limit %d", ErrCheckpoint, len(data), maxCheckpoint)
	}
	r := wire.NewReader(data)
	ck := readCheckpoint(&r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	return ck, nil
}

// readCheckpoint reads the layout above straight through; a failure sticks
// in r.
func readCheckpoint(r *wire.Reader) *Checkpoint {
	if magic := r.U8(); magic != ckMagic {
		r.Fail("bad magic")
		return nil
	}
	if version := r.U8(); version != ckVersion {
		r.Fail("unsupported version %d", version)
		return nil
	}
	// The calls of one statement run left to right (the spec's order of
	// evaluation), so each statement here reads its fields in wire order.
	ck := &Checkpoint{Epoch: int(r.I64()), Dim: int(r.I64()), Seed: r.I64()}
	t := r.Count(uint64(r.U32()), ckUserFloor)
	ck.W0, ck.Objective = r.Vec(nil), r.Vec(nil)
	ck.Sessions = make([]int64, t)
	ck.Dropped = make([]bool, t)
	ck.Stale = make([]int, t)
	ck.Us = make([]mat.Vector, t)
	ck.LastW = make([]mat.Vector, t)
	ck.LastV = make([]mat.Vector, t)
	ck.LastXi = make([]float64, t)
	for i := 0; i < t && r.Err() == nil; i++ {
		ck.Sessions[i], ck.Dropped[i], ck.Stale[i] = r.I64(), r.Bool(), int(r.I64())
		for _, dst := range [3]*mat.Vector{&ck.Us[i], &ck.LastW[i], &ck.LastV[i]} {
			if r.Bool() {
				if *dst = r.Vec(nil); *dst == nil {
					// Present with length 0 would re-encode as absent.
					r.Fail("present vector with zero length")
				}
			}
		}
		ck.LastXi[i] = r.F64()
	}
	return ck
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
	if !allFinite(ck.W0) || !allFinite(ck.Objective) {
		return fmt.Errorf("%w: non-finite w0 or objective history", ErrCheckpoint)
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
		if ck.Stale[t] < 0 {
			return fmt.Errorf("%w: user %d has negative staleness %d", ErrCheckpoint, t, ck.Stale[t])
		}
		for _, v := range []mat.Vector{ck.Us[t], ck.LastW[t], ck.LastV[t]} {
			if v != nil && len(v) != ck.Dim {
				return fmt.Errorf("%w: user %d vector length %d, dim %d", ErrCheckpoint, t, len(v), ck.Dim)
			}
			if !allFinite(v) {
				return fmt.Errorf("%w: user %d has a non-finite dual or solution", ErrCheckpoint, t)
			}
		}
		if math.IsNaN(ck.LastXi[t]) || math.IsInf(ck.LastXi[t], 0) {
			return fmt.Errorf("%w: user %d has non-finite slack %v", ErrCheckpoint, t, ck.LastXi[t])
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
