package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// The convergence flight recorder is the replayable, append-only companion
// of the metric registry: while counters aggregate, the recorder streams one
// typed JSON record per solver event to a writer (and keeps a bounded
// in-memory tail for live snapshots), so a finished run leaves a full
// CCCP/cut/ADMM trajectory that cmd/plos-trace can attribute and diff. Recording is strictly passive and shares the
// registry's nil-safety contract: with no recorder attached, FlightRecord
// is one atomic pointer load.

// RecordKind enumerates the typed flight-recorder records.
type RecordKind uint8

const (
	// RecordRunStart opens a training run (trainer name, user count).
	RecordRunStart RecordKind = iota + 1
	// RecordCCCPStart marks the beginning of one outer CCCP round.
	RecordCCCPStart
	// RecordCCCPIteration closes one CCCP round: objective and the number
	// of effective-label sign flips of its linearization refresh.
	RecordCCCPIteration
	// RecordCutRound is one cutting-plane round: the worst constraint
	// violation, constraints added, the working-set size after, and wall
	// duration.
	RecordCutRound
	// RecordADMMRound is one consensus ADMM round (or async barrier):
	// Eq. (24) primal/dual residuals and wall duration.
	RecordADMMRound
	// RecordDeviceRound is the server-side merge of one device's telemetry
	// piggyback: reply arrival relative to the round start (server clock),
	// device-reported solve duration, solver counts, cumulative traffic and
	// cost-model energy. Device times are durations only — no cross-host
	// clock sync.
	RecordDeviceRound
	// RecordStaleReuse marks an ADMM round that reused a straggler's
	// previous local solution.
	RecordStaleReuse
	// RecordDeviceDrop surfaces a ServeResult.DropCause event: the first
	// fatal failure on a device's connection, and the permanent removal.
	RecordDeviceDrop
	// RecordQuorum marks the active device count crossing the abort
	// threshold.
	RecordQuorum
	// RecordRunEnd closes a training run.
	RecordRunEnd
	// RecordShardReduce is one shard's cross-shard reduce for an ADMM
	// iteration: how long the shard sat blocked on its aggregator
	// connection (both reduce round-trips) and the bytes that crossed it.
	RecordShardReduce
	// RecordShardDown marks the aggregator detaching a shard mid-run (link
	// failure, reduce-deadline miss, or a shard-reported abort) with the
	// first recorded cause.
	RecordShardDown
	// RecordShardStale marks a reduce leg assembled from a detached shard's
	// last partial sum instead of a fresh message (the shard-tier analogue
	// of stale-reuse).
	RecordShardStale
	// RecordShardRestore marks a crashed shard re-attaching to the
	// aggregator after a checkpoint-restore rejoin handshake: the epoch it
	// restored from and how many reduce legs it was carried stale.
	RecordShardRestore
	// RecordAsyncFold is one asynchronous-mode consensus fold: a device's
	// update arrived and was folded into w0 under the staleness-weighted
	// DJAM rule (docs/ASYNC.md) — the arrival's staleness in fleet rounds,
	// the damping weight applied, and the post-fold residuals.
	RecordAsyncFold
	// RecordAsyncSnapshot marks the coordinator handing a device its
	// personalized consensus snapshot (z, u_t) in asynchronous mode — the
	// per-device replacement for the lockstep params broadcast.
	RecordAsyncSnapshot
	// RecordHealthTransition marks a health-engine component changing state
	// (ok, degraded, critical) with the rule cause that moved it. Emitted by
	// internal/obs/health; never fed back into the engine.
	RecordHealthTransition
)

// String returns the stable record-type name used in the JSONL stream.
func (k RecordKind) String() string {
	switch k {
	case RecordRunStart:
		return "run-start"
	case RecordCCCPStart:
		return "cccp-start"
	case RecordCCCPIteration:
		return "cccp-iteration"
	case RecordCutRound:
		return "cut-round"
	case RecordADMMRound:
		return "admm-round"
	case RecordDeviceRound:
		return "device-round"
	case RecordStaleReuse:
		return "stale-reuse"
	case RecordDeviceDrop:
		return "device-drop"
	case RecordQuorum:
		return "quorum"
	case RecordRunEnd:
		return "run-end"
	case RecordShardReduce:
		return "shard-reduce"
	case RecordShardDown:
		return "shard-down"
	case RecordShardStale:
		return "shard-stale"
	case RecordShardRestore:
		return "shard-restore"
	case RecordAsyncFold:
		return "async-fold"
	case RecordAsyncSnapshot:
		return "async-snapshot"
	case RecordHealthTransition:
		return "health-transition"
	default:
		return "record-unknown"
	}
}

// Record is one flight-recorder event. Only the fields relevant to Kind are
// meaningful; the JSONL schema per kind is fixed (see RecordCatalog and
// docs/OBSERVABILITY.md).
type Record struct {
	Kind    RecordKind
	Trainer string // run-start: "centralized", "distributed", "async", "kernel", "server", "shard", "agg"
	Users   int    // run-start: population size T
	// Round is the CCCP round (cccp-*), the cut-round index (cut-round),
	// or the ADMM iteration (admm-round, device-round, stale-reuse).
	Round int
	// User is the device index, or -1 for events not scoped to one device.
	User int
	// Shard is the emitting shard's index in a sharded serving plane
	// (shard-reduce); 0 elsewhere.
	Shard      int
	Objective  float64
	SignFlips  int // -1 when unknown (the wire server cannot see device signs)
	Violation  float64
	Added      int
	WorkingSet int
	Primal     float64
	Dual       float64
	Dur        time.Duration
	// Arrive is the device reply's arrival relative to the ADMM round start
	// on the server clock; Solve is the device-reported solve wall time.
	Arrive   time.Duration
	Solve    time.Duration
	QPIters  int64
	Cuts     int64
	WarmHits int64
	Msgs     int64
	Bytes    int64
	// RawBytes/CompBytes are the connection's cumulative parameter-payload
	// bytes in dense-equivalent and encoded form (zero without codec v4
	// compression; see docs/WIRE_COMPRESSION.md).
	RawBytes  int64
	CompBytes int64
	EnergyJ   float64
	Stale     int
	Cause     string
	Permanent bool
	Active    int
	Need      int
	Converged bool
	// Epoch is the asynchronous fold counter (async-fold, async-snapshot);
	// Staleness is an arrival's age in fleet rounds and Weight the DJAM
	// damping factor applied to its fold.
	Epoch     int
	Staleness float64
	Weight    float64
	// Component/From/To describe a health-transition: the component whose
	// state changed and the states on either side ("ok", "degraded",
	// "critical"); Cause carries the rule that moved it.
	Component string
	From      string
	To        string
}

// RecordDef describes one record type for the docs-freshness gate
// (scripts/checkmetrics two-way gates the docs table against this catalog,
// exactly like the metric catalog).
type RecordDef struct {
	Name string
	Help string
	// Fields are the JSON keys the record carries besides "rec".
	Fields []string
}

// RecordCatalog is the complete flight-recorder schema.
var RecordCatalog = []RecordDef{
	{"run-start", "A trainer began a run.", []string{"trainer", "users"}},
	{"cccp-start", "An outer CCCP round began.", []string{"round"}},
	{"cccp-iteration", "An outer CCCP round completed.", []string{"round", "objective", "sign_flips", "dur_ns"}},
	{"cut-round", "One cutting-plane round.", []string{"round", "user", "violation", "added", "working_set", "dur_ns"}},
	{"admm-round", "One consensus ADMM round (or async barrier).", []string{"round", "primal", "dual", "dur_ns"}},
	{"device-round", "Server-side merge of one device's telemetry piggyback.", []string{"round", "user", "arrive_ns", "solve_ns", "qp_iters", "cuts", "warm_hits", "sign_flips", "msgs", "bytes", "raw_bytes", "comp_bytes", "energy_j"}},
	{"stale-reuse", "A round reused a straggler's previous solution.", []string{"round", "user", "stale"}},
	{"device-drop", "A device drop-cause event (transient or permanent).", []string{"user", "cause", "permanent"}},
	{"quorum", "Active devices crossed the abort threshold.", []string{"active", "need"}},
	{"run-end", "A training run finished.", []string{"converged", "objective", "rounds"}},
	{"shard-reduce", "One shard's cross-shard reduce wait for an ADMM iteration.", []string{"round", "shard", "dur_ns", "bytes"}},
	{"shard-down", "The aggregator detached a shard mid-run.", []string{"shard", "cause"}},
	{"shard-stale", "A reduce leg reused a detached shard's last partials.", []string{"round", "shard", "stale"}},
	{"shard-restore", "A crashed shard rejoined via checkpoint restore.", []string{"shard", "round", "stale"}},
	{"async-fold", "One staleness-weighted consensus fold of an asynchronous-mode arrival.", []string{"round", "user", "epoch", "staleness", "weight", "primal", "dual"}},
	{"async-snapshot", "A device received its per-device consensus snapshot in asynchronous mode.", []string{"round", "user", "epoch"}},
	{"health-transition", "A health-engine component changed state.", []string{"component", "from", "to", "cause"}},
}

// marshal renders the record's fixed per-kind JSON line (without the
// trailing newline). encoding/json keeps struct field order, so the stream
// is deterministic given deterministic field values.
func (rec Record) marshal() ([]byte, error) {
	switch rec.Kind {
	case RecordRunStart:
		return json.Marshal(struct {
			Rec     string `json:"rec"`
			Trainer string `json:"trainer"`
			Users   int    `json:"users"`
		}{rec.Kind.String(), rec.Trainer, rec.Users})
	case RecordCCCPStart:
		return json.Marshal(struct {
			Rec   string `json:"rec"`
			Round int    `json:"round"`
		}{rec.Kind.String(), rec.Round})
	case RecordCCCPIteration:
		return json.Marshal(struct {
			Rec       string  `json:"rec"`
			Round     int     `json:"round"`
			Objective float64 `json:"objective"`
			SignFlips int     `json:"sign_flips"`
			DurNS     int64   `json:"dur_ns"`
		}{rec.Kind.String(), rec.Round, rec.Objective, rec.SignFlips, rec.Dur.Nanoseconds()})
	case RecordCutRound:
		return json.Marshal(struct {
			Rec        string  `json:"rec"`
			Round      int     `json:"round"`
			User       int     `json:"user"`
			Violation  float64 `json:"violation"`
			Added      int     `json:"added"`
			WorkingSet int     `json:"working_set"`
			DurNS      int64   `json:"dur_ns"`
		}{rec.Kind.String(), rec.Round, rec.User, rec.Violation, rec.Added, rec.WorkingSet, rec.Dur.Nanoseconds()})
	case RecordADMMRound:
		return json.Marshal(struct {
			Rec    string  `json:"rec"`
			Round  int     `json:"round"`
			Primal float64 `json:"primal"`
			Dual   float64 `json:"dual"`
			DurNS  int64   `json:"dur_ns"`
		}{rec.Kind.String(), rec.Round, rec.Primal, rec.Dual, rec.Dur.Nanoseconds()})
	case RecordDeviceRound:
		return json.Marshal(struct {
			Rec       string  `json:"rec"`
			Round     int     `json:"round"`
			User      int     `json:"user"`
			ArriveNS  int64   `json:"arrive_ns"`
			SolveNS   int64   `json:"solve_ns"`
			QPIters   int64   `json:"qp_iters"`
			Cuts      int64   `json:"cuts"`
			WarmHits  int64   `json:"warm_hits"`
			SignFlips int     `json:"sign_flips"`
			Msgs      int64   `json:"msgs"`
			Bytes     int64   `json:"bytes"`
			RawBytes  int64   `json:"raw_bytes"`
			CompBytes int64   `json:"comp_bytes"`
			EnergyJ   float64 `json:"energy_j"`
		}{rec.Kind.String(), rec.Round, rec.User, rec.Arrive.Nanoseconds(), rec.Solve.Nanoseconds(),
			rec.QPIters, rec.Cuts, rec.WarmHits, rec.SignFlips, rec.Msgs, rec.Bytes,
			rec.RawBytes, rec.CompBytes, rec.EnergyJ})
	case RecordStaleReuse:
		return json.Marshal(struct {
			Rec   string `json:"rec"`
			Round int    `json:"round"`
			User  int    `json:"user"`
			Stale int    `json:"stale"`
		}{rec.Kind.String(), rec.Round, rec.User, rec.Stale})
	case RecordDeviceDrop:
		return json.Marshal(struct {
			Rec       string `json:"rec"`
			User      int    `json:"user"`
			Cause     string `json:"cause"`
			Permanent bool   `json:"permanent"`
		}{rec.Kind.String(), rec.User, rec.Cause, rec.Permanent})
	case RecordQuorum:
		return json.Marshal(struct {
			Rec    string `json:"rec"`
			Active int    `json:"active"`
			Need   int    `json:"need"`
		}{rec.Kind.String(), rec.Active, rec.Need})
	case RecordRunEnd:
		return json.Marshal(struct {
			Rec       string  `json:"rec"`
			Converged bool    `json:"converged"`
			Objective float64 `json:"objective"`
			Rounds    int     `json:"rounds"`
		}{rec.Kind.String(), rec.Converged, rec.Objective, rec.Round})
	case RecordShardReduce:
		return json.Marshal(struct {
			Rec   string `json:"rec"`
			Round int    `json:"round"`
			Shard int    `json:"shard"`
			DurNS int64  `json:"dur_ns"`
			Bytes int64  `json:"bytes"`
		}{rec.Kind.String(), rec.Round, rec.Shard, rec.Dur.Nanoseconds(), rec.Bytes})
	case RecordShardDown:
		return json.Marshal(struct {
			Rec   string `json:"rec"`
			Shard int    `json:"shard"`
			Cause string `json:"cause"`
		}{rec.Kind.String(), rec.Shard, rec.Cause})
	case RecordShardStale:
		return json.Marshal(struct {
			Rec   string `json:"rec"`
			Round int    `json:"round"`
			Shard int    `json:"shard"`
			Stale int    `json:"stale"`
		}{rec.Kind.String(), rec.Round, rec.Shard, rec.Stale})
	case RecordShardRestore:
		return json.Marshal(struct {
			Rec   string `json:"rec"`
			Shard int    `json:"shard"`
			Round int    `json:"round"`
			Stale int    `json:"stale"`
		}{rec.Kind.String(), rec.Shard, rec.Round, rec.Stale})
	case RecordAsyncFold:
		return json.Marshal(struct {
			Rec       string  `json:"rec"`
			Round     int     `json:"round"`
			User      int     `json:"user"`
			Epoch     int     `json:"epoch"`
			Staleness float64 `json:"staleness"`
			Weight    float64 `json:"weight"`
			Primal    float64 `json:"primal"`
			Dual      float64 `json:"dual"`
		}{rec.Kind.String(), rec.Round, rec.User, rec.Epoch, rec.Staleness, rec.Weight, rec.Primal, rec.Dual})
	case RecordAsyncSnapshot:
		return json.Marshal(struct {
			Rec   string `json:"rec"`
			Round int    `json:"round"`
			User  int    `json:"user"`
			Epoch int    `json:"epoch"`
		}{rec.Kind.String(), rec.Round, rec.User, rec.Epoch})
	case RecordHealthTransition:
		return json.Marshal(struct {
			Rec       string `json:"rec"`
			Component string `json:"component"`
			From      string `json:"from"`
			To        string `json:"to"`
			Cause     string `json:"cause"`
		}{rec.Kind.String(), rec.Component, rec.From, rec.To, rec.Cause})
	default:
		return json.Marshal(struct {
			Rec string `json:"rec"`
		}{rec.Kind.String()})
	}
}

// DefaultFlightTail bounds the in-memory tail a FlightRecorder retains for
// live snapshots (the /debug/trace surface).
const DefaultFlightTail = 256

// FlightRecorder streams flight records as JSONL to w (which may be nil for
// a tail-only recorder) and retains the most recent DefaultFlightTail
// encoded lines in memory. Safe for concurrent use; the first write error
// is latched and stops further writes to w (the tail keeps filling).
type FlightRecorder struct {
	mu    sync.Mutex
	w     io.Writer
	tail  [][]byte
	next  int
	total int64
	err   error
	// errGauge, when set (by SetFlightRecorder), flips to 1 the moment the
	// first write error latches — the obs_flight_write_errors surface.
	errGauge *Gauge
}

// NewFlightRecorder creates a recorder streaming to w. A nil w keeps only
// the in-memory tail. tailCap <= 0 uses DefaultFlightTail.
func NewFlightRecorder(w io.Writer, tailCap int) *FlightRecorder {
	if tailCap <= 0 {
		tailCap = DefaultFlightTail
	}
	return &FlightRecorder{w: w, tail: make([][]byte, 0, tailCap)}
}

// Record appends one record to the stream and the tail (no-op on nil).
func (fr *FlightRecorder) Record(rec Record) {
	if fr == nil {
		return
	}
	line, err := rec.marshal()
	if err != nil {
		return // a non-marshalable record is a programming error; drop it
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.total++
	if len(fr.tail) < cap(fr.tail) {
		fr.tail = append(fr.tail, line)
	} else {
		fr.tail[fr.next] = line
	}
	fr.next = (fr.next + 1) % cap(fr.tail)
	if fr.w != nil && fr.err == nil {
		if _, err := fr.w.Write(append(line, '\n')); err != nil {
			fr.err = err
			fr.errGauge.Set(1)
		}
	}
}

// Tail returns the retained encoded lines, oldest first.
func (fr *FlightRecorder) Tail() []string {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]string, 0, len(fr.tail))
	if len(fr.tail) == cap(fr.tail) {
		for _, l := range fr.tail[fr.next:] {
			out = append(out, string(l))
		}
		for _, l := range fr.tail[:fr.next] {
			out = append(out, string(l))
		}
	} else {
		for _, l := range fr.tail {
			out = append(out, string(l))
		}
	}
	return out
}

// Recorded returns the count of records ever recorded.
func (fr *FlightRecorder) Recorded() int64 {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.total
}

// Err returns the first write error, if any.
func (fr *FlightRecorder) Err() error {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.err
}

// SetFlightRecorder attaches fr to the registry; every FlightRecord call
// lands there. Passing nil detaches. No-op on a nil registry. Attaching also
// wires the recorder's latched write error to the obs_flight_write_errors
// gauge, so a dead flight file is visible on the metric surfaces instead of
// failing silently.
func (r *Registry) SetFlightRecorder(fr *FlightRecorder) {
	if r == nil {
		return
	}
	if fr != nil {
		g := r.Gauge(MetricFlightWriteErrors, "")
		fr.mu.Lock()
		fr.errGauge = g
		if fr.err != nil {
			g.Set(1)
		}
		fr.mu.Unlock()
	}
	r.flight.Store(&flightSlot{fr: fr})
}

// Flight returns the attached recorder (nil when none, or on a nil
// registry).
func (r *Registry) Flight() *FlightRecorder {
	if r == nil {
		return nil
	}
	if slot := r.flight.Load(); slot != nil {
		return slot.fr
	}
	return nil
}

// FlightEnabled reports whether flight records are being collected. Hot
// paths use it to skip building Record values entirely.
func (r *Registry) FlightEnabled() bool { return r.Flight() != nil }

// FlightRecord appends one record to the attached recorder (no-op when none
// is attached or on a nil registry) and feeds it to the attached health
// sink, which evaluates its rules over the same stream the recorder
// persists.
func (r *Registry) FlightRecord(rec Record) {
	r.Flight().Record(rec)
	if s := r.HealthSink(); s != nil {
		s.ObserveRecord(rec)
	}
}

// flightSlot wraps the recorder pointer so detaching (storing nil) is
// expressible with atomic.Pointer.
type flightSlot struct{ fr *FlightRecorder }
