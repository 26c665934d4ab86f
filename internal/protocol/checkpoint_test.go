package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"plos/internal/mat"
)

// sampleCheckpoint builds a representative snapshot: three users, one
// dropped (with nil vectors), one never heard from.
func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Epoch:     2,
		Dim:       3,
		Seed:      77,
		W0:        mat.Vector{0.5, -1.25, math.Pi},
		Objective: []float64{12.5, 11.875},
		Sessions:  []int64{101, 102, 103},
		Dropped:   []bool{false, true, false},
		Stale:     []int{0, 4, 1},
		Us:        []mat.Vector{{1, 2, 3}, nil, {-0.5, 0, 0.5}},
		LastW:     []mat.Vector{{4, 5, 6}, nil, {7, 8, 9}},
		LastV:     []mat.Vector{{0.1, 0.2, 0.3}, nil, nil},
		LastXi:    []float64{0.25, 0, 1.5},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	buf, err := MarshalCheckpoint(ck)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := UnmarshalCheckpoint(buf)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", ck, got)
	}
	// Canonical: re-encoding the decoded form reproduces the bytes.
	buf2, err := MarshalCheckpoint(got)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Error("encoding is not canonical")
	}
}

func TestMarshalCheckpointRejectsInconsistentSlices(t *testing.T) {
	ck := sampleCheckpoint()
	ck.Stale = ck.Stale[:1]
	if _, err := MarshalCheckpoint(ck); err == nil {
		t.Error("mismatched per-user slice lengths should fail to marshal")
	}
}

func TestUnmarshalCheckpointRejectsCorruption(t *testing.T) {
	good, err := MarshalCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"bad version", mutate(func(b []byte) []byte { b[1] = 9; return b })},
		{"trailing byte", mutate(func(b []byte) []byte { return append(b, 0) })},
		{"truncated tail", mutate(func(b []byte) []byte { return b[:len(b)-1] })},
		{"truncated header", good[:5]},
		// Offset 26 is the first byte of the user count (after magic,
		// version and three i64 header fields).
		{"huge user count", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[26:], 1<<31-1)
			return b
		})},
		// Offset 30 starts the w0 vector length.
		{"huge vector length", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[30:], 1<<31-1)
			return b
		})},
		{"non-bool dropped byte", mutate(func(b []byte) []byte {
			// First user entry starts after header + w0 vec + objective vec;
			// its dropped byte follows the 8-byte session.
			off := 30 + 4 + 8*3 + 4 + 8*2 + 8
			b[off] = 2
			return b
		})},
		{"present empty optvec", func() []byte {
			// A presence byte of 1 followed by a zero-length vector would
			// re-encode as absent, so the decoder must reject it.
			ck := sampleCheckpoint()
			b, _ := MarshalCheckpoint(ck)
			off := 30 + 4 + 8*3 + 4 + 8*2 + 8 + 1 + 8 // first user's Us optvec
			if b[off] != 1 {
				t.Fatalf("test offset drifted: byte at %d is %d, want presence 1", off, b[off])
			}
			out := append([]byte(nil), b[:off]...)
			out = append(out, 1, 0, 0, 0, 0) // present, length 0
			out = append(out, b[off+1+4+8*3:]...)
			return out
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := UnmarshalCheckpoint(tc.data); !errors.Is(err, ErrCheckpoint) {
				t.Errorf("err = %v, want ErrCheckpoint", err)
			}
		})
	}
}

func TestCheckpointValidateForRestore(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ck *Checkpoint)
	}{
		{"zero dim", func(ck *Checkpoint) { ck.Dim = 0 }},
		{"negative epoch", func(ck *Checkpoint) { ck.Epoch = -1; ck.Objective = nil }},
		{"w0 length", func(ck *Checkpoint) { ck.W0 = ck.W0[:1] }},
		{"objective/epoch mismatch", func(ck *Checkpoint) { ck.Objective = ck.Objective[:1] }},
		{"no users", func(ck *Checkpoint) {
			ck.Sessions, ck.Dropped, ck.Stale = nil, nil, nil
			ck.Us, ck.LastW, ck.LastV, ck.LastXi = nil, nil, nil, nil
		}},
		{"zero live token", func(ck *Checkpoint) { ck.Sessions[0] = 0 }},
		{"duplicate live token", func(ck *Checkpoint) { ck.Sessions[2] = ck.Sessions[0] }},
		{"wrong vector dim", func(ck *Checkpoint) { ck.LastW[2] = mat.Vector{1} }},
		{"NaN in w0", func(ck *Checkpoint) { ck.W0[1] = math.NaN() }},
		{"Inf objective", func(ck *Checkpoint) { ck.Objective[0] = math.Inf(1) }},
		{"NaN dual", func(ck *Checkpoint) { ck.Us[0][2] = math.NaN() }},
		{"NaN last W", func(ck *Checkpoint) { ck.LastW[2][0] = math.NaN() }},
		{"Inf last V", func(ck *Checkpoint) { ck.LastV[0][1] = math.Inf(-1) }},
		{"NaN last Xi", func(ck *Checkpoint) { ck.LastXi[2] = math.NaN() }},
		{"negative stale", func(ck *Checkpoint) { ck.Stale[0] = -3 }},
	}
	if err := sampleCheckpoint().validateForRestore(); err != nil {
		t.Fatalf("sample checkpoint should validate: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := sampleCheckpoint()
			tc.mutate(ck)
			if err := ck.validateForRestore(); !errors.Is(err, ErrCheckpoint) {
				t.Errorf("err = %v, want ErrCheckpoint", err)
			}
		})
	}
	// A dropped user's token may be zero or duplicated — it is out of play.
	ck := sampleCheckpoint()
	ck.Sessions[1] = 0
	if err := ck.validateForRestore(); err != nil {
		t.Errorf("dropped user with zero token should validate: %v", err)
	}
}

func TestSaveLoadCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := LoadCheckpoint(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	ck := sampleCheckpoint()
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Error("loaded checkpoint differs from saved")
	}
	// Atomic overwrite: a newer snapshot replaces the old one in place.
	ck.Epoch = 3
	ck.Objective = append(ck.Objective, 11.5)
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 || len(got.Objective) != 3 {
		t.Errorf("overwritten checkpoint = epoch %d, %d objectives", got.Epoch, len(got.Objective))
	}
	// Temp files from the atomic write must not accumulate.
	matches, err := filepath.Glob(filepath.Join(t.TempDir(), "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("leftover temp files: %v", matches)
	}
}

// FuzzCheckpointRoundTrip pins two properties of the codec: the decoder
// never panics on arbitrary input, and every accepted input is the canonical
// encoding of its decoded value (decode ∘ encode is the identity).
func FuzzCheckpointRoundTrip(f *testing.F) {
	if buf, err := MarshalCheckpoint(sampleCheckpoint()); err == nil {
		f.Add(buf)
	}
	if buf, err := MarshalCheckpoint(&Checkpoint{Dim: 1, W0: mat.Vector{1},
		Sessions: []int64{9}, Dropped: []bool{false}, Stale: []int{0},
		Us: []mat.Vector{nil}, LastW: []mat.Vector{nil}, LastV: []mat.Vector{nil},
		LastXi: []float64{0}}); err == nil {
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{ckMagic, ckVersion})
	f.Add([]byte("Knot a checkpoint at all, just bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		buf, err := MarshalCheckpoint(ck)
		if err != nil {
			t.Fatalf("accepted input failed to re-marshal: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("non-canonical input accepted:\n in: %x\nout: %x", data, buf)
		}
	})
}
