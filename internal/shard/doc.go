// Package shard holds the grouped-reduction algebra of the sharded serving
// plane, which makes the sharded ADMM bit-identical to a single
// coordinator.
//
// The paper's consensus step (Eq. 23) needs only Σ(x_t + u_t) and a count
// from the whole population, so it decomposes into shard-local partial
// sums plus one tiny cross-shard reduce per ADMM iteration. Because
// floating-point addition is not associative, "the same sum" is not
// automatic: this package fixes one summation shape — per-partition
// partials folded in partition order — and every lockstep driver uses it
// through the same helpers (SumXUTo, ApplyZ, Fold, FoldInit): a shard over
// its users, a single coordinator over its reduce groups, the in-process
// admm.Consensus.Step over one partition of everybody. A single coordinator
// configured with the matching ReduceGroups partition (see
// protocol.ServerConfig) then reproduces the sharded result bit for bit,
// which is what the pinned equivalence tests assert.
//
// The wire half of the plane lives in internal/protocol (RunShard,
// RunAggregator, the MsgShard* kinds in internal/transport); the operator
// view is docs/SHARDING.md.
package shard
