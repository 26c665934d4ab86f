// Package admm implements the consensus form of the alternating direction
// method of multipliers (Boyd et al. 2011, §7) that distributed PLOS is
// built on (paper §V):
//
//	minimize  Σ_t f_t(x_t) + g(z)   subject to  x_t = z, t = 1..T
//
// Each round: every worker minimizes its augmented local objective at the
// current (z, u_t) and reports x_t; the server applies the proximal update
// of g to Σ(x_t + u_t); the scaled duals are updated as u_t += x_t − z.
// The arithmetic of that lockstep iteration — the sum, the dual update with
// its Σ‖x_t − z‖², and their operation order — is internal/shard's
// (reduce.go), written once for every plane: Consensus.Step runs it over the
// one partition that holds every worker, the wire round engine
// (internal/protocol) over reduce groups and shards, and DualResidual is the
// Eq. (24) dual residual for both. Run is the in-process driver; it also
// reads the clock around each x-update and each Step (RunInfo's three
// durations). AsyncFold is the arrival-order rule: a damped fold over
// standing solutions that keeps Σ(x_t + u_t) across arrivals, deliberately
// its own code.
//
// Paper mapping: the x-update is device subproblem (22), the z-update with
// g(z) = ||z||² is the closed form behind SquaredNormZ, and Residuals plus
// Options.EpsAbs implement the Eq. (24) stopping rule. ObserveRound is the
// single recorder of per-round observability (round counter, residual
// gauges, duration histogram, admm-round record) shared by every ADMM driver —
// including the async trainer's barrier folds.
package admm
