package eval

import (
	"fmt"

	"plos/internal/core"
	"plos/internal/har"
	"plos/internal/rng"
)

// CutRoundOptions parameterize the solver hot-path workload of
// BenchmarkCutRound.
type CutRoundOptions struct {
	// Rebuild disables the incremental restricted-QP cache (DESIGN.md §11),
	// rebuilding the dual Gram from scratch each cut round — the "before"
	// arm of the benchmark. Both arms produce bit-identical models.
	Rebuild bool
	// Workers is the solver fan-out (0 = GOMAXPROCS).
	Workers int
	// Seed drives the cohort generation and label assignment.
	Seed int64
}

// MinCutRounds is the depth the workload must reach for the comparison to
// be meaningful — below this the Gram never grows far enough for setup cost
// to matter. CutRound returns an error when the solver converges earlier.
const MinCutRounds = 20

// CutRound trains centralized PLOS once on a Fig. 5-sized HAR cohort
// (10 users, 561 features + bias as in the real corpus, 40 samples each,
// 5 label providers at 10%)
// with a tight cutting-plane tolerance that forces a deep constraint-
// generation loop. It returns the solver diagnostics; callers time it.
func CutRound(o CutRoundOptions) (core.TrainInfo, error) {
	g := rng.New(o.Seed)
	ds, err := har.Generate(har.Config{Users: 10, PerClass: 20, Dim: 561, Bias: true}, g.Split("har"))
	if err != nil {
		return core.TrainInfo{}, err
	}
	bases := make([]Base, len(ds.Users))
	for i, u := range ds.Users {
		bases[i] = Base{X: u.X, Truth: u.Truth}
	}
	providers := randomProviders(5, len(bases), g.Split("providers"))
	users, _, err := Assemble(bases, providers, 0.1, g.Split("assemble"), o.Workers)
	if err != nil {
		return core.TrainInfo{}, err
	}
	cfg := core.Config{
		Lambda: 100, Cl: 1, Cu: 0.2,
		Epsilon:    1e-5, // tight tolerance → many cut rounds per CCCP round
		MaxCutIter: 400,
		// Inexact inner solves: the warm-started duals carry convergence
		// across rounds, so a modest per-solve iteration cap keeps the
		// cutting-plane trajectory intact while the benchmark measures the
		// restricted-QP *setup* (the part the incremental cache removes)
		// rather than re-timing the unchanged FISTA arithmetic.
		QPMaxIter:   60,
		MaxCCCPIter: 3,
		Workers:     o.Workers,
		RebuildGram: o.Rebuild,
		Seed:        o.Seed,
	}
	_, info, err := core.TrainCentralized(users, cfg)
	if err != nil {
		return info, err
	}
	if info.CutRounds < MinCutRounds {
		return info, fmt.Errorf("eval: CutRound: workload too shallow: %d cut rounds < %d",
			info.CutRounds, MinCutRounds)
	}
	return info, nil
}
