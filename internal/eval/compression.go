package eval

import (
	"fmt"
	"math"

	"plos/internal/compress"
	"plos/internal/core"
	"plos/internal/rng"
)

// CompressionOptions parameterize the accuracy-vs-bytes sweep: the Fig. 5
// HAR workload trained distributed once per codec-v4 scheme, with the
// in-process compression simulation (DistConfig.Compress) standing in for
// the wire.
type CompressionOptions struct {
	CohortOptions
	// Users / PerClass / Dim shape the HAR cohort (defaults 10 / 12 / 120 —
	// the reduced Fig. 5 cohort).
	Users, PerClass, Dim int
	// Providers is the number of label-providing users (default 5); Rate
	// their label fraction (default 0.25).
	Providers int
	Rate      float64
	// Schemes are the compression specs to sweep; "dense" (the empty
	// spec) is always run first as the baseline.
	Schemes []string
}

func (o CompressionOptions) withDefaults() CompressionOptions {
	o.CohortOptions = o.CohortOptions.withDefaults()
	if o.Users <= 0 {
		o.Users = 10
	}
	if o.PerClass <= 0 {
		o.PerClass = 12
	}
	if o.Dim <= 0 {
		o.Dim = 120
	}
	if o.Providers <= 0 {
		o.Providers = 5
	}
	if o.Rate <= 0 {
		o.Rate = 0.25
	}
	if len(o.Schemes) == 0 {
		o.Schemes = []string{"q16", "q8", "q8,delta", "q16,topk:0.5", "q8,topk:0.75"}
	}
	return o
}

// CompressionPoint is one scheme's outcome on the shared workload.
type CompressionPoint struct {
	Scheme string `json:"scheme"`
	// RawBytes / CompBytes are the dense-equivalent and encoded parameter
	// payload totals across the whole run; Ratio = raw/comp (1 for dense).
	RawBytes  int64   `json:"raw_bytes"`
	CompBytes int64   `json:"comp_bytes"`
	Ratio     float64 `json:"ratio"`
	// Objective is the final training objective; ObjGapRel its relative
	// gap to the dense baseline (0 for dense itself).
	Objective float64 `json:"objective"`
	ObjGapRel float64 `json:"obj_gap_rel"`
	// Accuracy is the personalized-model accuracy over every user's full
	// ground truth.
	Accuracy float64 `json:"accuracy"`
	// EFNorm is the final error-feedback residual norm (0 for dense).
	EFNorm float64 `json:"ef_norm"`
}

// HARCohort assembles the reduced Fig. 5 HAR workload shared by the
// codec-v4 sweep and the async wire bench: Users HAR users, Providers of
// them labeling a Rate fraction. The returned truths carry every user's
// full ground truth for accuracy scoring.
func HARCohort(o CompressionOptions) ([]core.UserData, [][]float64, error) {
	o = o.withDefaults()
	g := rng.New(o.Seed)
	bases, err := HAROptions{CohortOptions: o.CohortOptions,
		Users: o.Users, PerClass: o.PerClass, Dim: o.Dim}.genBases(g.Split("cohort"))
	if err != nil {
		return nil, nil, fmt.Errorf("eval: HARCohort: %w", err)
	}
	providers := randomProviders(o.Providers, len(bases), g.Split("providers"))
	users, truths, err := Assemble(bases, providers, o.Rate, g.Split("assemble"), o.Workers)
	if err != nil {
		return nil, nil, fmt.Errorf("eval: HARCohort: %w", err)
	}
	return users, truths, nil
}

// CompressionSweep trains the same Fig. 5 HAR workload once dense and once
// per compression scheme, reporting bytes, objective drift, and accuracy
// for each — the data behind the accuracy-vs-bytes trade-off. The solver
// caps keep a full sweep in CI budget; dense and compressed runs share
// them, so the comparison stays apples to apples.
func CompressionSweep(o CompressionOptions) ([]CompressionPoint, error) {
	o = o.withDefaults()
	users, truths, err := HARCohort(o)
	if err != nil {
		return nil, fmt.Errorf("eval: CompressionSweep: %w", err)
	}

	cfg := o.coreConfig()
	cfg.MaxCCCPIter = 4
	cfg.MaxCutIter = 20
	cfg.QPMaxIter = 800

	runOne := func(spec string) (CompressionPoint, error) {
		var ccfg compress.Config
		if spec != "dense" {
			var err error
			if ccfg, err = compress.Parse(spec); err != nil {
				return CompressionPoint{}, fmt.Errorf("eval: CompressionSweep: %w", err)
			}
		}
		dcfg := core.DistConfig{MaxADMMIter: 30, EpsAbs: 1e-2, Workers: o.Workers, Compress: ccfg}
		model, info, err := core.TrainDistributed(users, cfg, dcfg)
		if err != nil {
			return CompressionPoint{}, fmt.Errorf("eval: CompressionSweep: %s: %w", spec, err)
		}
		pt := CompressionPoint{Scheme: spec,
			RawBytes:  info.CommRawBytes,
			CompBytes: info.CommCompBytes,
			Ratio:     1,
			Objective: info.Objective,
			EFNorm:    info.CompressEFNorm,
		}
		if info.CommCompBytes > 0 {
			pt.Ratio = float64(info.CommRawBytes) / float64(info.CommCompBytes)
		}
		correct, total := 0, 0
		for t := range users {
			for i, y := range truths[t] {
				pred := 1.0
				if model.ScoreUser(t, users[t].X.Row(i)) < 0 {
					pred = -1
				}
				if pred == y {
					correct++
				}
				total++
			}
		}
		pt.Accuracy = float64(correct) / float64(total)
		return pt, nil
	}

	dense, err := runOne("dense")
	if err != nil {
		return nil, err
	}
	out := []CompressionPoint{dense}
	for _, spec := range o.Schemes {
		pt, err := runOne(spec)
		if err != nil {
			return nil, err
		}
		pt.ObjGapRel = math.Abs(pt.Objective-dense.Objective) /
			math.Max(1e-9, math.Abs(dense.Objective))
		out = append(out, pt)
	}
	return out, nil
}
