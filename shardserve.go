package plos

import (
	"errors"
	"fmt"

	"plos/internal/protocol"
	"plos/internal/transport"
)

// AggregateResult is the aggregator-side outcome of a sharded run. The
// aggregator never holds per-user models — those stay on the shards (each
// ServeShard returns its partition's ServeResult) — so this reports only the
// global model and run-level accounting.
type AggregateResult struct {
	// Global is the consensus hyperplane w0 (bias-augmented when the run
	// used WithBias, which is the default).
	Global []float64
	// Users is the global population size T, summed over the shard hellos.
	Users int
	// Rounds is the number of completed CCCP rounds; Converged reports
	// whether the outer loop met its tolerance within the round budget.
	Rounds    int
	Converged bool
	// Objective is the final global objective; ObjectiveHistory the
	// per-round trajectory (restored rounds included after a resume).
	Objective        float64
	ObjectiveHistory []float64
	// TrafficBytes[s] / TrafficMessages[s] account the aggregator's link to
	// shard s.
	TrafficBytes    []int64
	TrafficMessages []int
	// ShardCauses[s] is the first fatal failure recorded for shard s — nil
	// for shards that stayed healthy, non-nil for shards that were detached
	// (reduce-deadline miss, dead link), even if they later rejoined via
	// checkpoint restore.
	ShardCauses []error
	// Restarts counts shards re-attached through the checkpoint-restore
	// rejoin handshake during this run.
	Restarts int
}

// aggFT assembles the shard-tier fault-tolerance envelope from the same
// options that drive the device tier: WithRoundTimeout bounds each reduce
// leg, WithMaxStale bounds stale carries, WithShardQuorum sets the abort
// floor, and WithSessionResume enables the rejoin accept loop.
func (o *options) aggFT(rejoin <-chan protocol.Rejoin) protocol.AggFTConfig {
	return protocol.AggFTConfig{
		ReduceTimeout: o.ft.roundTimeout,
		ShardQuorum:   o.ft.shardQuorum,
		MaxStale:      o.ft.maxStale,
		Rejoin:        rejoin,
	}
}

// ServeShard runs one shard of a sharded serving plane: it listens on addr
// for exactly `devices` Join peers (its user partition), dials the
// aggregator at aggAddr, and serves the partition exactly like Serve except
// that every cross-user reduction is shipped to the aggregator and the
// CCCP/ADMM control decisions arrive from there. shardID is this process's
// 0-based shard index; it must be unique per aggregator and contiguous
// across the deployment, because the aggregator folds shard partials in
// shard-id order (the bit-identity contract of docs/SHARDING.md).
//
// Options behave as in Serve: WithCheckpoint resumes this shard from its
// own checkpoint (the same partition it saved), WithSessionResume
// keeps accepting device reconnections, and WithCompression applies to the
// device links only — the aggregator link is never compressed (see
// wrapLink). Hyperparameters (λ, Cl, Cu, ρ, …) are decided by the
// aggregator and flow through the shard to its devices, so training knobs
// passed here are ignored in favor of the aggregator's.
func ServeShard(aggAddr string, shardID int, addr string, devices int, onListen func(addr string), opts ...Option) (*ServeResult, error) {
	if shardID < 0 {
		return nil, errors.New("plos: ServeShard: shard id must be >= 0")
	}
	var res *protocol.ServerResult
	o, err := serve(addr, devices, onListen, opts, serverLink,
		func(o *options, peers []transport.Conn, rejoin <-chan protocol.Rejoin, restore *protocol.Checkpoint) error {
			aggRaw, err := transport.Dial(aggAddr)
			if err != nil {
				return fmt.Errorf("dial aggregator: %w", err)
			}
			defer aggRaw.Close()
			res, err = protocol.RunShard(wrapLink(aggRaw, o, "retry-shard-agg", shardID, aggLink), peers,
				protocol.ShardConfig{Shard: shardID, Core: o.core, FT: o.serverFT(rejoin, restore)})
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("plos: ServeShard: %w", err)
	}
	return serveResult(res, o), nil
}

// ServeAggregator runs the top-level aggregator of a sharded serving plane
// on addr and trains with exactly `shards` connected ServeShard peers. It
// is the single source of hyperparameters and convergence decisions; pass
// the training options (WithLambda, WithADMM, …) here, not to the shards.
// Blocks until training completes. onListen, if non-nil, receives the bound
// address before accepting starts (useful with ":0").
//
// The aggregator holds no user data and no per-user models: it sees only
// shard-level partial sums, so the paper's privacy posture (raw data never
// leaves the device; personalized models never leave the shard) is
// preserved across the extra tier.
//
// Shard-tier fault tolerance reuses the device-tier options:
// WithRoundTimeout bounds each reduce leg, WithMaxStale lets a detached
// shard's last partials keep being folded while it restarts, WithShardQuorum
// sets the abort floor, and WithSessionResume keeps the listener accepting
// so a shard restarted with WithCheckpoint can rejoin mid-run (see
// docs/SHARDING.md and docs/FAULT_TOLERANCE.md).
func ServeAggregator(addr string, shards int, onListen func(addr string), opts ...Option) (*AggregateResult, error) {
	var res *protocol.AggResult
	// A crashed shard dials back in with its checkpoint-restore hello: that
	// is the rejoin queue of this tier.
	_, err := serve(addr, shards, onListen, opts, aggLink,
		func(o *options, peers []transport.Conn, rejoin <-chan protocol.Rejoin, _ *protocol.Checkpoint) (err error) {
			res, err = protocol.RunAggregator(peers, protocol.AggConfig{
				Core: o.core, Dist: o.dist, FT: o.aggFT(rejoin),
			})
			return err
		})
	if err != nil {
		return nil, fmt.Errorf("plos: ServeAggregator: %w", err)
	}
	out := &AggregateResult{
		Global:           append([]float64(nil), res.W0...),
		Users:            res.Users,
		Rounds:           res.Info.CCCPIterations,
		Converged:        res.Info.CCCPConverged,
		Objective:        res.Info.Objective,
		ObjectiveHistory: append([]float64(nil), res.Info.ObjectiveHistory...),
		ShardCauses:      append([]error(nil), res.ShardCauses...),
		Restarts:         res.Restarts,
	}
	for _, s := range res.PerShard {
		out.TrafficBytes = append(out.TrafficBytes, s.BytesSent+s.BytesReceived)
		out.TrafficMessages = append(out.TrafficMessages, s.MessagesSent+s.MessagesReceived)
	}
	return out, nil
}
