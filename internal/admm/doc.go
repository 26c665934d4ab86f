// Package admm implements the consensus form of the alternating direction
// method of multipliers (Boyd et al. 2011, §7) that distributed PLOS is
// built on (paper §V):
//
//	minimize  Σ_t f_t(x_t) + g(z)   subject to  x_t = z, t = 1..T
//
// Each round: every worker minimizes its augmented local objective at the
// current (z, u_t) and reports x_t; the server applies the proximal update
// of g to the average of (x_t + u_t); the scaled duals are updated as
// u_t += x_t − z. The Consensus type holds exactly the server-side state so
// that both the in-process driver (Run) and the wire-protocol server
// (internal/transport + internal/core) share one implementation of the
// update algebra and the residual-based stopping rule.
//
// Paper mapping: the x-update is device subproblem (22), the z-update with
// g(z) = ||z||² is the closed form behind SquaredNormZ, and Residuals plus
// Options.EpsAbs implement the Eq. (24) stopping rule. ObserveRound is the
// single recorder of per-round observability (round counter, residual
// gauges, duration histogram, admm-round record) shared by every ADMM driver —
// including the async trainer's barrier folds.
package admm
