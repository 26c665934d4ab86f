package transport

import (
	"errors"
	"fmt"
	"sync"

	"plos/internal/compress"
)

// MsgType enumerates the protocol messages of distributed PLOS.
type MsgType int

const (
	// MsgHello is sent by a client on connect: announces its feature
	// dimension and sample count (metadata only, never samples).
	MsgHello MsgType = iota + 1
	// MsgStartRound starts a CCCP round: carries the current w0 so the
	// device can freeze its effective labels.
	MsgStartRound
	// MsgParams is one ADMM half-round, server to device: carries the
	// consensus z (w0) and the device's scaled dual u_t.
	MsgParams
	// MsgUpdate is the device's reply: its local solution (w_t, v_t, ξ_t).
	MsgUpdate
	// MsgDone ends training: carries the final w0.
	MsgDone
	// MsgError aborts the protocol with a reason.
	MsgError

	// The shard↔aggregator reduce protocol (docs/SHARDING.md) reuses the
	// existing Message fields, so these kinds need no codec change and are
	// invisible to device peers: shards speak them only on their dedicated
	// aggregator connection, negotiated by MsgShardHello in place of the
	// device hello.

	// MsgShardHello opens a shard's aggregator connection: Round is the
	// shard index, Users/Samples the shard's total and live device counts,
	// W/U/Xi the shard's federated-init partials (weighted sum, plain sum,
	// weight total). Labeled=1 marks a checkpoint-restoring shard (the
	// discriminator — codecs need not preserve nil-vs-empty vectors), with
	// W carrying the restored w0 and V the prior objective history.
	// The aggregator's reply carries the global T in Users and the
	// training hyperparameters in Config.
	MsgShardHello
	// MsgShardRound starts CCCP round Round on a shard: carries w0.
	MsgShardRound
	// MsgShardSum is a shard's ADMM partial Σ(x_t+u_t) for iteration
	// Round, with its live participant count in Users.
	MsgShardSum
	// MsgShardZ broadcasts the freshly reduced consensus z for iteration
	// Round back to the shards.
	MsgShardZ
	// MsgShardResid is a shard's post-z partials for iteration Round: the
	// primal-residual partial Σ‖x_t−z‖² in Xi and the objective partial
	// Σ(λ/T·‖v_t‖²+ξ_t) in W[0], with the live count in Users.
	MsgShardResid
	// MsgShardNext advances a shard to ADMM iteration Round of the
	// current CCCP round.
	MsgShardNext
	// MsgShardDone ends a sharded run: carries the final w0.
	MsgShardDone
)

// String implements fmt.Stringer for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgStartRound:
		return "start-round"
	case MsgParams:
		return "params"
	case MsgUpdate:
		return "update"
	case MsgDone:
		return "done"
	case MsgError:
		return "error"
	case MsgShardHello:
		return "shard-hello"
	case MsgShardRound:
		return "shard-round"
	case MsgShardSum:
		return "shard-sum"
	case MsgShardZ:
		return "shard-z"
	case MsgShardResid:
		return "shard-resid"
	case MsgShardNext:
		return "shard-next"
	case MsgShardDone:
		return "shard-done"
	default:
		return fmt.Sprintf("msgtype(%d)", int(t))
	}
}

// Message is the single wire frame of the protocol. Fields are used
// according to Type; unused fields stay zero and cost nothing on the wire
// estimate.
type Message struct {
	Type  MsgType
	Round int
	// Dim, Samples and Labeled are metadata carried by MsgHello (client
	// side); Users is the total user count T announced by the server's
	// hello reply.
	Dim, Samples, Labeled, Users int
	// W0, U, W, V are model parameter vectors.
	W0, U, W, V []float64
	// Xi is the device slack in MsgUpdate.
	Xi float64
	// Seq is a per-connection, per-direction sequence number stamped by the
	// Retry wrapper (retry.go) so the receiving side can drop duplicate
	// deliveries. 0 means the reliability layer is not in use.
	Seq int64
	// Session is the resume token of the fault-tolerance layer: assigned by
	// the server in its hello reply and echoed by a reconnecting client's
	// hello so the server can re-attach the device to its slot. 0 means no
	// session was established.
	Session int64
	// Reason explains a MsgError.
	Reason string
	// Config distributes the training hyperparameters from the server to
	// the devices in the hello reply.
	Config *WireConfig
	// Telemetry is the per-round device telemetry piggyback on MsgUpdate.
	// Attached only when the server's hello reply requested it
	// (WireConfig.Telemetry); nil otherwise, costing nothing on the wire.
	Telemetry *WireTelemetry
	// Caps is the codec v4 compression negotiation block: a client's hello
	// carries its offer, the server's hello reply the intersected answer.
	// Attached by the Compress wrapper; nil on every other message, keeping
	// those frames bit-identical to codec v3.
	Caps *compress.Config
	// Comp carries compressed parameter payloads (codec v4). When a slot is
	// present here the corresponding dense field (W0/U/W/V) is nil; the
	// Compress wrapper reconstructs it on receive, so the protocol layer
	// never sees this field populated.
	Comp *WireComp
}

// WireComp is the compressed form of the four parameter vector slots of a
// message. Slots not carried by the message stay nil.
type WireComp struct {
	W0, U, W, V *compress.Vec
}

// WireConfig is the hyperparameter block the server pushes to devices so a
// deployment is configured in exactly one place.
type WireConfig struct {
	Lambda, Cl, Cu, Epsilon, Rho  float64
	MaxCutIter, QPMaxIter         int
	BalanceGuard, WarmWorkingSets bool
	// Telemetry asks devices to piggyback a WireTelemetry block on every
	// MsgUpdate (set when the server's observer has a flight recorder).
	Telemetry bool
}

// WireTelemetry is the compact per-round telemetry record a device
// piggybacks on its MsgUpdate when the server requested it. It carries only
// durations and counts — never model state — so observation stays passive;
// durations are device-local (no cross-host clock sync is implied).
type WireTelemetry struct {
	// SolveNS is the wall time of this round's local Solve in nanoseconds.
	SolveNS int64
	// QPIters, Cuts and WarmHits are this solve's inner-QP iteration count,
	// cutting-plane rounds, and warm-started QP solves.
	QPIters, Cuts, WarmHits int64
	// SignFlips is the effective-label flip count of the most recent CCCP
	// linearization refresh, reported once (first update after the refresh).
	SignFlips int64
	// MsgsSent/MsgsRecv/BytesSent/BytesRecv are the device's cumulative
	// traffic counters across all its connections.
	MsgsSent, MsgsRecv, BytesSent, BytesRecv int64
	// EnergyJ is the device's cumulative cost-model energy estimate
	// (compute + radio) in joules.
	EnergyJ float64
}

// WireSize returns the deterministic size estimate of the message in bytes:
// an 8-byte header word per scalar field plus 8 bytes per vector element.
// The in-process transport uses it so simulated experiments report the same
// communication volumes regardless of host encoding; the TCP transport
// reports real encoded bytes instead.
func (m Message) WireSize() int { return wireSize(&m) }

// wireSize is WireSize without a copy of the message.
func wireSize(m *Message) int {
	const header = 8 * 9 // type, round, dim, samples, labeled, users, seq, session, xi
	size := header + len(m.Reason) + 8*(len(m.W0)+len(m.U)+len(m.W)+len(m.V))
	if m.Config != nil {
		size += 8 * 10
	}
	if m.Telemetry != nil {
		size += 8 * 10
	}
	if m.Caps != nil || m.Comp != nil {
		size++ // codec v4 flags byte
		if m.Caps != nil {
			size += 10
		}
		if m.Comp != nil {
			size++ // slot presence byte
			for _, v := range []*compress.Vec{m.Comp.W0, m.Comp.U, m.Comp.W, m.Comp.V} {
				if v != nil {
					size += v.EncodedSize()
				}
			}
		}
	}
	return size
}

// Stats is a connection's cumulative traffic, as seen from the local side.
type Stats struct {
	MessagesSent, MessagesReceived int
	BytesSent, BytesReceived       int64
}

// Add returns the element-wise sum of two stats (for aggregating across
// connections).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MessagesSent:     s.MessagesSent + o.MessagesSent,
		MessagesReceived: s.MessagesReceived + o.MessagesReceived,
		BytesSent:        s.BytesSent + o.BytesSent,
		BytesReceived:    s.BytesReceived + o.BytesReceived,
	}
}

// Conn is a bidirectional, message-oriented connection with accounting.
// Implementations must make Send and Recv safe to call from different
// goroutines (one sender, one receiver).
//
// Vectors cross a Conn on loan, never by transfer (DESIGN.md §12):
//
//   - Send borrows m for the duration of the call. Once it returns the
//     caller may overwrite m's vectors; an implementation that needs them
//     longer (a pipe's hand-over, Chaos's asynchronous duplicate) copies.
//   - Recv lends. The returned Message's vectors belong to the connection
//     and are valid until the next Recv on it; a caller that keeps one
//     longer copies it into storage it owns.
type Conn interface {
	Send(m Message) error
	Recv() (Message, error)
	Close() error
	Stats() Stats
}

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// counter tracks Stats under a mutex; embedded by implementations.
type counter struct {
	mu sync.Mutex
	s  Stats
}

func (c *counter) addSent(bytes int) {
	c.mu.Lock()
	c.s.MessagesSent++
	c.s.BytesSent += int64(bytes)
	c.mu.Unlock()
}

func (c *counter) addReceived(bytes int) {
	c.mu.Lock()
	c.s.MessagesReceived++
	c.s.BytesReceived += int64(bytes)
	c.mu.Unlock()
}

func (c *counter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}
