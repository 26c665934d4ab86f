package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

// sampleRecord builds one record of the given kind with every relevant field
// set to a distinctive value.
func sampleRecord(kind RecordKind) Record {
	return Record{
		Kind: kind, Trainer: "distributed", Users: 7, Round: 3, User: 2, Shard: 1,
		Objective: 1.5, SignFlips: 4, Violation: 0.25, Added: 1, WorkingSet: 9,
		Primal: 0.125, Dual: 0.0625, Dur: 2 * time.Millisecond,
		Arrive: time.Millisecond, Solve: 500 * time.Microsecond,
		QPIters: 11, Cuts: 3, WarmHits: 2, Msgs: 12, Bytes: 4096, EnergyJ: 0.5,
		Stale: 2, Cause: "boom", Permanent: true, Active: 3, Need: 4, Converged: true,
		Epoch: 5, Staleness: 1.5, Weight: 0.4,
		Component: "shard:1", From: "ok", To: "degraded",
	}
}

// TestRecordMarshalMatchesCatalog two-way checks the JSONL schema against
// RecordCatalog: each kind must emit exactly "rec" plus its documented
// fields — the same contract scripts/checkmetrics enforces against the docs.
func TestRecordMarshalMatchesCatalog(t *testing.T) {
	kinds := []RecordKind{RecordRunStart, RecordCCCPStart, RecordCCCPIteration,
		RecordCutRound, RecordADMMRound, RecordDeviceRound, RecordStaleReuse,
		RecordDeviceDrop, RecordQuorum, RecordRunEnd, RecordShardReduce,
		RecordShardDown, RecordShardStale, RecordShardRestore,
		RecordAsyncFold, RecordAsyncSnapshot, RecordHealthTransition}
	if len(kinds) != len(RecordCatalog) {
		t.Fatalf("catalog has %d entries for %d kinds", len(RecordCatalog), len(kinds))
	}
	byName := map[string]RecordDef{}
	for _, def := range RecordCatalog {
		byName[def.Name] = def
	}
	for _, kind := range kinds {
		def, ok := byName[kind.String()]
		if !ok {
			t.Errorf("kind %v missing from RecordCatalog", kind)
			continue
		}
		line, err := sampleRecord(kind).marshal()
		if err != nil {
			t.Fatalf("marshal %v: %v", kind, err)
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("kind %v emits invalid JSON: %v", kind, err)
		}
		if m["rec"] != kind.String() {
			t.Errorf("kind %v: rec field = %v", kind, m["rec"])
		}
		want := append([]string{"rec"}, def.Fields...)
		var got []string
		for k := range m {
			got = append(got, k)
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("kind %v fields = %v, catalog says %v", kind, got, want)
		}
	}
}

func TestFlightRecorderStreamAndTail(t *testing.T) {
	var buf strings.Builder
	fr := NewFlightRecorder(&buf, 4)
	for i := 0; i < 6; i++ {
		fr.Record(Record{Kind: RecordCCCPStart, Round: i})
	}
	if got := fr.Recorded(); got != 6 {
		t.Errorf("Recorded() = %d, want 6", got)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("stream has %d lines, want 6", len(lines))
	}
	tail := fr.Tail()
	if len(tail) != 4 {
		t.Fatalf("tail has %d lines, want 4", len(tail))
	}
	// Tail is the last 4 records, oldest first.
	for i, line := range tail {
		if line != lines[i+2] {
			t.Errorf("tail[%d] = %s, want %s", i, line, lines[i+2])
		}
	}
	if err := fr.Err(); err != nil {
		t.Errorf("Err() = %v", err)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestFlightRecorderLatchesWriteError(t *testing.T) {
	fw := &failWriter{}
	fr := NewFlightRecorder(fw, 8)
	for i := 0; i < 4; i++ {
		fr.Record(Record{Kind: RecordCCCPStart, Round: i})
	}
	if fr.Err() == nil {
		t.Fatal("write error not latched")
	}
	if fw.n != 2 {
		t.Errorf("writer called %d times; the latched error should stop writes", fw.n)
	}
	// The tail keeps filling past the write error.
	if got := len(fr.Tail()); got != 4 {
		t.Errorf("tail has %d lines after write error, want 4", got)
	}
}

func TestFlightNilSafety(t *testing.T) {
	var r *Registry
	if r.FlightEnabled() {
		t.Error("nil registry reports flight enabled")
	}
	r.FlightRecord(Record{Kind: RecordRunStart}) // must not panic
	r.SetFlightRecorder(nil)

	reg := NewRegistry()
	if reg.FlightEnabled() {
		t.Error("fresh registry reports flight enabled")
	}
	reg.FlightRecord(Record{Kind: RecordRunStart}) // no recorder: no-op

	fr := NewFlightRecorder(nil, 0) // tail-only, default capacity
	reg.SetFlightRecorder(fr)
	if !reg.FlightEnabled() {
		t.Error("attached recorder not reported")
	}
	reg.FlightRecord(Record{Kind: RecordRunStart, Trainer: "centralized", Users: 1})
	if fr.Recorded() != 1 {
		t.Errorf("Recorded() = %d after one record", fr.Recorded())
	}
	reg.SetFlightRecorder(nil)
	if reg.FlightEnabled() {
		t.Error("detach did not take")
	}

	var nilFR *FlightRecorder
	nilFR.Record(Record{Kind: RecordRunStart})
	if nilFR.Tail() != nil || nilFR.Recorded() != 0 || nilFR.Err() != nil {
		t.Error("nil FlightRecorder accessors not zero")
	}
}
