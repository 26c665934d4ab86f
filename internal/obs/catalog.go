package obs

// Kind is the export type of a metric.
type Kind int

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindGaugeFunc
	KindHistogram
)

// String returns the Prometheus type keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "summary"
	default:
		return "untyped"
	}
}

// Canonical metric names. Instrumentation sites reference these constants —
// never string literals — so the catalog below is complete by construction
// and scripts/checkmetrics can hold docs/OBSERVABILITY.md to it.
const (
	MetricTrainRuns         = "train_runs_total"
	MetricTrainObjective    = "train_objective"
	MetricCCCPIterations    = "cccp_iterations_total"
	MetricCCCPConverged     = "cccp_converged"
	MetricCutRounds         = "cutplane_rounds_total"
	MetricConstraintsAdded  = "constraints_added_total"
	MetricConstraintsActive = "constraints_active"
	MetricGramBuildSeconds  = "gram_build_seconds"

	MetricQPSolves             = "qp_solves_total"
	MetricQPIterations         = "qp_iterations_total"
	MetricQPSolveSeconds       = "qp_solve_seconds"
	MetricWarmStartTruncations = "qp_warmstart_truncations_total"

	MetricADMMRounds         = "admm_rounds_total"
	MetricADMMPrimalResidual = "admm_primal_residual"
	MetricADMMDualResidual   = "admm_dual_residual"
	MetricADMMRoundSeconds   = "admm_round_seconds"
	MetricAsyncUpdates       = "async_updates_total"
	MetricAsyncSweepSolves   = "async_sweep_solves_total"
	MetricAsyncStaleFolds    = "async_stale_folds_total"

	MetricMessagesSent     = "transport_messages_sent_total"
	MetricMessagesReceived = "transport_messages_received_total"
	MetricBytesSent        = "transport_bytes_sent_total"
	MetricBytesReceived    = "transport_bytes_received_total"

	MetricTransportRetries     = "transport_retries_total"
	MetricTransportOpTimeouts  = "transport_op_timeouts_total"
	MetricTransportDupsDropped = "transport_duplicates_dropped_total"
	MetricChaosFaults          = "chaos_faults_injected_total"

	MetricProtocolReconnects     = "protocol_reconnects_total"
	MetricProtocolStaleReuses    = "protocol_stale_reuses_total"
	MetricProtocolDroppedDevices = "protocol_devices_dropped_total"
	MetricProtocolDeviceDrops    = "protocol_device_drops_total"
	MetricCheckpointsWritten     = "checkpoints_written_total"

	MetricParallelBatches           = "parallel_batches_total"
	MetricParallelTasks             = "parallel_tasks_total"
	MetricParallelQueueDepth        = "parallel_queue_depth"
	MetricParallelWorkerBusySeconds = "parallel_worker_busy_seconds"

	MetricDeviceCommEnergyJoules = "device_comm_energy_joules"

	MetricWireRawBytes           = "wire_raw_bytes_total"
	MetricWireCompressedBytes    = "wire_compressed_bytes_total"
	MetricWireCompressionRatio   = "wire_compression_ratio"
	MetricQuantErrorFeedbackNorm = "quant_error_feedback_norm"

	MetricShardReduceSeconds   = "shard_reduce_seconds"
	MetricShardDevices         = "shard_devices"
	MetricShardMigrations      = "shard_migrations_total"
	MetricShardCrossBytesTotal = "shard_cross_bytes_total"

	MetricShardRestarts     = "shard_restarts_total"
	MetricAggLinkRetries    = "agg_link_retries_total"
	MetricShardStaleReduces = "shard_stale_reduces_total"

	MetricFlightWriteErrors    = "obs_flight_write_errors"
	MetricHealthState          = "health_state"
	MetricProcessUptimeSeconds = "process_uptime_seconds"
	MetricBuildInfo            = "plos_build_info"
)

// MetricDef describes one catalog entry.
type MetricDef struct {
	Name string
	Kind Kind
	// Unit is the measurement unit ("1" for dimensionless counts).
	Unit string
	Help string
}

// Catalog is the complete metric set of the observability layer. NewRegistry
// pre-registers every non-func entry; scripts/checkmetrics fails the build
// when a name here is missing from docs/OBSERVABILITY.md.
var Catalog = []MetricDef{
	{MetricTrainRuns, KindCounter, "1", "Training runs started (any trainer)."},
	{MetricTrainObjective, KindGauge, "1", "Objective value after the most recent CCCP round."},
	{MetricCCCPIterations, KindCounter, "1", "Outer CCCP iterations completed."},
	{MetricCCCPConverged, KindGauge, "1", "1 if the most recent training run's CCCP loop converged, else 0."},
	{MetricCutRounds, KindCounter, "1", "Cutting-plane rounds completed (centralized restricted solves and device-local solves)."},
	{MetricConstraintsAdded, KindCounter, "1", "Constraints appended to working sets."},
	{MetricConstraintsActive, KindGauge, "1", "Total working-set size across users after the most recent cut loop."},
	{MetricGramBuildSeconds, KindHistogram, "seconds", "Wall-clock duration of one incremental Gram-cache sync before a restricted QP solve (centralized and device-local)."},

	{MetricQPSolves, KindCounter, "1", "Inner QP dual solves."},
	{MetricQPIterations, KindCounter, "1", "Cumulative projected-gradient (FISTA) iterations across QP solves."},
	{MetricQPSolveSeconds, KindHistogram, "seconds", "Wall-clock duration of one QP solve."},
	{MetricWarmStartTruncations, KindCounter, "1", "Warm-start duals dropped because a working set shrank between restricted solves (the stale mapping is discarded and the solve falls back to a cold start)."},

	{MetricADMMRounds, KindCounter, "1", "Consensus ADMM rounds completed."},
	{MetricADMMPrimalResidual, KindGauge, "1", "Primal residual of the most recent ADMM round (paper Eq. 24)."},
	{MetricADMMDualResidual, KindGauge, "1", "Dual residual of the most recent ADMM round (paper Eq. 24)."},
	{MetricADMMRoundSeconds, KindHistogram, "seconds", "Wall-clock duration of one ADMM round."},
	{MetricAsyncUpdates, KindCounter, "1", "Device solutions folded in by the asynchronous trainer."},
	{MetricAsyncSweepSolves, KindCounter, "1", "Device re-solves in the final synchronous sweep that closes each asynchronous CCCP round (not folded into the consensus)."},
	{MetricAsyncStaleFolds, KindCounter, "1", "Asynchronous wire folds whose arriving solution was computed against a consensus at least one full fleet round old."},

	{MetricMessagesSent, KindCounter, "1", "Protocol messages sent on observed connections."},
	{MetricMessagesReceived, KindCounter, "1", "Protocol messages received on observed connections."},
	{MetricBytesSent, KindCounter, "bytes", "Bytes sent on observed connections (real encoded bytes on TCP, WireSize on pipes)."},
	{MetricBytesReceived, KindCounter, "bytes", "Bytes received on observed connections."},

	{MetricTransportRetries, KindCounter, "1", "Transient Send/Recv failures retried by the transport.Retry wrapper."},
	{MetricTransportOpTimeouts, KindCounter, "1", "Send/Recv operations that hit their per-operation deadline."},
	{MetricTransportDupsDropped, KindCounter, "1", "Duplicate deliveries discarded by sequence-number dedup."},
	{MetricChaosFaults, KindCounter, "1", "Faults injected by the deterministic chaos connection (drops, delays, duplicates, corruptions, partitions)."},

	{MetricProtocolReconnects, KindCounter, "1", "Devices re-attached to their server slot after a session-resume handshake."},
	{MetricProtocolStaleReuses, KindCounter, "1", "ADMM rounds that reused a straggler's previous local solution."},
	{MetricProtocolDroppedDevices, KindCounter, "1", "Devices permanently dropped from a training run."},
	{MetricProtocolDeviceDrops, KindCounter, "1", "Device drop-cause events recorded (first fatal failure per connection; includes devices that later recovered via session resume)."},
	{MetricCheckpointsWritten, KindCounter, "1", "Server trainer-state checkpoints written to disk."},

	{MetricParallelBatches, KindCounter, "1", "Worker-pool batches (For/Do/Map calls) started."},
	{MetricParallelTasks, KindCounter, "1", "Task indexes submitted to the worker pool."},
	{MetricParallelQueueDepth, KindGauge, "1", "Task count of the most recent batch (0 once drained)."},
	{MetricParallelWorkerBusySeconds, KindHistogram, "seconds", "Time one worker goroutine spent on one batch."},

	{MetricDeviceCommEnergyJoules, KindGaugeFunc, "joules", "Estimated device radio energy for the observed traffic (cost.DeviceProfile model; registered by plos-server)."},

	{MetricWireRawBytes, KindCounter, "bytes", "Dense-equivalent bytes of the parameter payloads that crossed compression-negotiated connections (what the same exchange would have cost at codec v3)."},
	{MetricWireCompressedBytes, KindCounter, "bytes", "Actual encoded bytes of compressed parameter payloads on the wire (codec v4)."},
	{MetricWireCompressionRatio, KindGauge, "1", "Cumulative raw/compressed parameter-payload byte ratio across compression-negotiated connections (1 means compression is not saving anything)."},
	{MetricQuantErrorFeedbackNorm, KindGauge, "1", "L2 norm of the sender-side error-feedback accumulators after the most recent compressed send (bounded when compression is healthy; growth signals divergence)."},

	{MetricShardReduceSeconds, KindHistogram, "seconds", "Time one shard spent blocked on the aggregator per ADMM iteration (both cross-shard reduce round-trips)."},
	{MetricShardDevices, KindGauge, "1", "Devices currently served by this shard process (live slots after the handshake or restore)."},
	{MetricShardMigrations, KindCounter, "1", "Users adopted by this shard through a checkpoint-restore handoff (a shard replacement)."},
	{MetricShardCrossBytesTotal, KindCounter, "bytes", "Bytes exchanged on the shard's aggregator connection (cross-shard reduce traffic; excludes device traffic)."},

	{MetricShardRestarts, KindCounter, "1", "Crashed shards re-attached to the aggregator after a checkpoint-restore rejoin handshake."},
	{MetricAggLinkRetries, KindCounter, "1", "Transient failures absorbed by the retry layer on shard-aggregator links specifically (also counted in transport_retries_total)."},
	{MetricShardStaleReduces, KindCounter, "1", "Reduce legs the aggregator assembled from a detached shard's last partials instead of a fresh message."},

	{MetricFlightWriteErrors, KindGauge, "1", "1 once the flight recorder's JSONL writer latched a write error (further file writes stop; the in-memory tail keeps filling), else 0."},
	{MetricHealthState, KindGauge, "1", "Fleet health rollup of the attached health engine: 0 ok, 1 degraded, 2 critical (stays 0 with no engine)."},
	{MetricProcessUptimeSeconds, KindGaugeFunc, "seconds", "Seconds since this process initialized the plos package (registered by NewObserver)."},
	{MetricBuildInfo, KindGaugeFunc, "1", "Constant 1; the help text carries the build identity — Go runtime version, wire codec versions, compiled-in serving planes (registered by NewObserver)."},
}
