// Package obs is the unified observability layer of the PLOS reproduction:
// a dependency-free metrics registry (atomic counters, gauges, streaming
// log-linear histograms with p50/p95/max) plus the flight recorder, one
// catalog-gated JSONL stream of typed solver events. Events go to the flight
// stream, durations to histograms; nothing is recorded twice.
//
// The paper's evaluation (§VI, Figures 8–13) is largely an accounting
// exercise — CCCP iterations to convergence, ADMM rounds, bytes on the
// wire, device energy — and this package is the one lens those counts flow
// through: internal/core, internal/admm, internal/qp, internal/transport
// and internal/parallel all record into a Registry when one is attached,
// and the export surfaces (Prometheus text, expvar snapshot, flight JSONL)
// read from it. docs/OBSERVABILITY.md maps every metric in Catalog to its
// paper figure.
//
// Two invariants shape the design:
//
//   - Nil-safety. A nil *Registry (and every handle it returns) is a valid
//     no-op receiver, so instrumented hot paths never branch on whether
//     observation is enabled: enabled costs one atomic add, disabled costs
//     one nil check.
//   - Determinism. Recording is strictly observational — it never reorders
//     work, takes locks on solver paths, or feeds values back into
//     training — so the bit-identical-output contract of internal/parallel
//     (DESIGN.md §8) holds with observation on or off.
package obs
