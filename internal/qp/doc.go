// Package qp provides hand-rolled quadratic-programming solvers for the
// structured duals that arise in PLOS:
//
//   - the centralized dual (paper Eq. 16): min ½γᵀGγ − cᵀγ over γ ≥ 0 with a
//     per-user budget Σ_{k∈user t} γ_k ≤ T/(2λ);
//   - the local ADMM dual of subproblem (22): the same shape with a single
//     group and budget 1.
//
// Go has no numerical ecosystem, so the solver is built from scratch: FISTA
// with adaptive restart, whose projection onto the nonnegative orthant and
// per-group budget caps factorizes over groups and is exact. Each group's
// threshold comes from Michelot's filter, a few O(n) passes with no sort,
// held to the textbook descending scan (Held, Wolfe & Crowder) by a stated
// bound; the scan is the oracle in reference_test.go and runs only where the
// threshold is not finite. A FISTA iteration passes over the iterates once
// per phase, every sum in index order: the step sums its positives for the
// threshold, and the projection's last pass also takes the residual and the
// restart dot, extrapolates y and lists the support whose rows of G one
// mat.AddScaledRows call adds into the next G·y — bitwise the dense product
// for GramCache's exactly mirrored Grams. A Scratch carries the buffers and
// iterates across solves, so Scratch.Solve allocates nothing and Solve only
// what it returns.
//
// On amd64 with AVX (internal/cpu) three passes run as kernels in
// kernels_amd64.s — the step with its positives' sum and count, the
// projection's last pass, and y's support pass — each bitwise its Go loop in
// passes.go, which runs without AVX, under the purego build tag and on every
// other GOARCH. Michelot's filter is a Go loop everywhere. GramCache fills
// new columns four at a time through mat.DotRows4's tiled kernel (GrowDots,
// and GrowCross for a Gram written as a product of two factors).
//
// When Options.Obs is set, each Solve reports qp_solves_total,
// qp_iterations_total and a qp_solve_seconds observation; the solve itself
// is unaffected (same iterates, same stopping test).
package qp
