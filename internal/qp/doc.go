// Package qp provides hand-rolled quadratic-programming solvers for the
// structured duals that arise in PLOS:
//
//   - the centralized dual (paper Eq. 16): min ½γᵀGγ − cᵀγ over γ ≥ 0 with a
//     per-user budget Σ_{k∈user t} γ_k ≤ T/(2λ);
//   - the local ADMM dual of subproblem (22): the same shape with a single
//     group and budget 1.
//
// Go has no numerical ecosystem, so the solver is built from scratch: an
// accelerated projected-gradient method (FISTA with adaptive restart) whose
// projection step — onto the intersection of the nonnegative orthant and
// per-group budget caps — is computed exactly by the threshold projection of
// Held, Wolfe & Crowder. The projection factorizes over groups, so exactness
// is cheap.
//
// The projection runs on solver-owned buffers and orders only what its
// threshold scan can reach: the strictly positive entries, and the rest only
// if the scan outlives them (projectSimplex). Its contract is bit-identity
// with the textbook form — clone, full descending sort, scan — which lives
// on as the reference in reference_test.go, compared with math.Float64bits
// and fuzzed; no sort-everything path remains in the package. A Scratch
// carries those buffers and the iterates across solves, so Scratch.Solve
// allocates nothing and Solve only what it returns.
//
// When Options.Obs is set, each Solve reports qp_solves_total,
// qp_iterations_total and a qp_solve_seconds observation; the solve itself
// is unaffected (same iterates, same stopping test).
package qp
