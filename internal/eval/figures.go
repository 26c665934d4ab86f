package eval

import (
	"fmt"
	"math"
	"sync"
	"time"

	"plos/internal/core"
	"plos/internal/cost"
	"plos/internal/dataset"
	"plos/internal/har"
	"plos/internal/obs"
	"plos/internal/parallel"
	"plos/internal/protocol"
	"plos/internal/rng"
	"plos/internal/sensors"
	"plos/internal/svm"
	"plos/internal/transport"
)

// CohortOptions are shared across all accuracy figures.
type CohortOptions struct {
	// Trials is the number of repetitions averaged per point (default 3).
	Trials int
	// Seed makes the whole figure reproducible.
	Seed int64
	// Lambda, Cl, Cu parameterize PLOS (defaults 100 / 1 / 0.2; the paper
	// selects them by cross-validation — see CrossValidateConfigs).
	Lambda, Cl, Cu float64
	// Workers bounds the goroutine fan-out — across a figure's trials and
	// inside each trial's Assemble and solvers: 0 means
	// runtime.GOMAXPROCS(0), 1 is strictly sequential. The cohort
	// generators (internal/har, internal/sensors) spread their users over
	// GOMAXPROCS whatever it says. Figure values are identical for any
	// setting (per-trial results are gathered and folded in trial order). The
	// timing figures (Fig12, EnergyComparison) keep their trials sequential
	// regardless so wall-clock measurements stay undisturbed.
	Workers int
	// Obs, when non-nil, receives the solver metrics of every training run
	// in the figure (internal/obs); figure outputs are unchanged by it.
	Obs *obs.Registry
}

func (o CohortOptions) withDefaults() CohortOptions {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Lambda <= 0 {
		o.Lambda = 100
	}
	if o.Cl <= 0 {
		o.Cl = 1
	}
	if o.Cu == 0 {
		o.Cu = 0.2
	}
	return o
}

func (o CohortOptions) coreConfig() core.Config {
	return core.Config{Lambda: o.Lambda, Cl: o.Cl, Cu: o.Cu, Seed: o.Seed, Workers: o.Workers, Obs: o.Obs}
}

// sweep is the shared engine behind the accuracy figures: at every x it
// generates a cohort, assembles the labeled/unlabeled split, runs all
// methods, and averages over trials.
type sweep struct {
	id, title, xlabel string
	xs                []float64
	trials            int
	workers           int
	seed              int64
	genBases          func(x float64, g *rng.RNG) ([]Base, error)
	providersFor      func(x float64, nUsers int, g *rng.RNG) []int
	rateFor           func(x float64) float64
	cfgFor            func(x float64) MethodsConfig
	skip              []string
}

func (s sweep) run() (Figure, Figure, error) {
	root := rng.New(s.seed)
	methodNames := make([]string, 0, len(Methods))
	for _, m := range Methods {
		skipped := false
		for _, sk := range s.skip {
			if sk == m {
				skipped = true
			}
		}
		if !skipped {
			methodNames = append(methodNames, m)
		}
	}
	labeledY := make(map[string][]float64)
	unlabeledY := make(map[string][]float64)
	labeledStd := make(map[string][]float64)
	unlabeledStd := make(map[string][]float64)
	for xi, x := range s.xs {
		// Trials are independent given the figure seed (each draws from its
		// own SplitN stream), so they fan out across the worker pool; the
		// gathered per-trial results are folded below in trial order, which
		// keeps every mean/std bit-identical for any worker count.
		trialAccs, err := parallel.Map(s.workers, s.trials, func(trial int) (map[string]GroupAccuracies, error) {
			g := root.SplitN(fmt.Sprintf("%s-x%d", s.id, xi), trial)
			bases, err := s.genBases(x, g.Split("data"))
			if err != nil {
				return nil, fmt.Errorf("eval: %s x=%v: %w", s.id, x, err)
			}
			providers := s.providersFor(x, len(bases), g.Split("providers"))
			users, truths, err := Assemble(bases, providers, s.rateFor(x), g.Split("assemble"), s.workers)
			if err != nil {
				return nil, fmt.Errorf("eval: %s x=%v: %w", s.id, x, err)
			}
			cfg := s.cfgFor(x)
			cfg.Skip = append(cfg.Skip, s.skip...)
			accs, err := RunMethods(users, truths, providers, cfg, g.Split("methods"))
			if err != nil {
				return nil, fmt.Errorf("eval: %s x=%v: %w", s.id, x, err)
			}
			return accs, nil
		})
		if err != nil {
			return Figure{}, Figure{}, err
		}
		perTrial := make(map[string][]GroupAccuracies)
		for _, accs := range trialAccs {
			for name, a := range accs {
				perTrial[name] = append(perTrial[name], a)
			}
		}
		for _, name := range methodNames {
			var lab, unl []float64
			for _, a := range perTrial[name] {
				lab = append(lab, a.Labeled)
				unl = append(unl, a.Unlabeled)
			}
			lm, ls := meanStd(lab)
			um, us := meanStd(unl)
			labeledY[name] = append(labeledY[name], lm)
			labeledStd[name] = append(labeledStd[name], ls)
			unlabeledY[name] = append(unlabeledY[name], um)
			unlabeledStd[name] = append(unlabeledStd[name], us)
		}
	}
	build := func(suffix, pop string, ys, stds map[string][]float64) Figure {
		f := Figure{
			ID:     s.id + suffix,
			Title:  s.title + " — " + pop,
			XLabel: s.xlabel,
			X:      append([]float64(nil), s.xs...),
		}
		for _, name := range methodNames {
			f.Curves = append(f.Curves, Curve{Name: name, Y: ys[name], YStd: stds[name]})
		}
		return f
	}
	return build("a", "users with labels", labeledY, labeledStd),
		build("b", "users w/o labels", unlabeledY, unlabeledStd), nil
}

// meanStd returns the mean and population standard deviation of xs
// (NaN-propagating: any NaN input yields NaN outputs).
func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(len(xs))
	var varSum float64
	for _, v := range xs {
		d := v - mean
		varSum += d * d
	}
	return mean, math.Sqrt(varSum / float64(len(xs)))
}

// randomProviders picks `count` distinct users.
func randomProviders(count, nUsers int, g *rng.RNG) []int {
	if count > nUsers {
		count = nUsers
	}
	return g.SampleWithoutReplacement(nUsers, count)
}

// ---------------------------------------------------------------------
// Body sensor figures (paper §VI-B, Figs 3–4).

// BodyOptions parameterize the body-sensor experiments.
type BodyOptions struct {
	CohortOptions
	// Subjects and Segments size the simulated cohort (defaults 20 / 70,
	// the paper's numbers).
	Subjects, Segments int
	// ProviderCounts is Fig 3's x axis (default 2..18 step 2).
	ProviderCounts []int
	// LabelRate is the fraction labeled by each provider (default 0.06).
	LabelRate float64
	// TrainingRates is Fig 4's x axis (default 0.04..0.48 step 0.04).
	TrainingRates []float64
	// FixedProviders is Fig 4's provider count (default 9).
	FixedProviders int
}

func (o BodyOptions) withDefaults() BodyOptions {
	o.CohortOptions = o.CohortOptions.withDefaults()
	if o.Subjects <= 0 {
		o.Subjects = 20
	}
	if o.Segments <= 0 {
		o.Segments = 70
	}
	if len(o.ProviderCounts) == 0 {
		for c := 2; c <= 18; c += 2 {
			o.ProviderCounts = append(o.ProviderCounts, c)
		}
	}
	if o.LabelRate <= 0 {
		o.LabelRate = 0.06
	}
	if len(o.TrainingRates) == 0 {
		for r := 0.04; r <= 0.4801; r += 0.04 {
			o.TrainingRates = append(o.TrainingRates, r)
		}
	}
	if o.FixedProviders <= 0 {
		o.FixedProviders = 9
	}
	return o
}

func (o BodyOptions) genBases(g *rng.RNG) ([]Base, error) {
	ds, err := sensors.Generate(sensors.Config{
		Subjects:            o.Subjects,
		SegmentsPerActivity: o.Segments,
	}, g)
	if err != nil {
		return nil, err
	}
	bases := make([]Base, len(ds.Subjects))
	for i, s := range ds.Subjects {
		bases[i] = Base{X: svm.AugmentBias(s.X), Truth: s.Truth}
	}
	return bases, nil
}

// Fig3 reproduces Figure 3: body-sensor accuracy vs the number of users who
// provide labels, on labeled (a) and unlabeled (b) users.
func Fig3(o BodyOptions) (Figure, Figure, error) {
	o = o.withDefaults()
	xs := make([]float64, len(o.ProviderCounts))
	for i, c := range o.ProviderCounts {
		xs[i] = float64(c)
	}
	return sweep{
		id: "fig03", title: "Body sensors: accuracy vs # label providers",
		xlabel: "#providers", xs: xs, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		genBases: func(_ float64, g *rng.RNG) ([]Base, error) { return o.genBases(g) },
		providersFor: func(x float64, n int, g *rng.RNG) []int {
			return randomProviders(int(x), n, g)
		},
		rateFor: func(float64) float64 { return o.LabelRate },
		cfgFor: func(float64) MethodsConfig {
			return MethodsConfig{Core: o.coreConfig()}
		},
	}.run()
}

// Fig4 reproduces Figure 4: body-sensor accuracy vs the labeled fraction of
// the providers' data, with a fixed provider count.
func Fig4(o BodyOptions) (Figure, Figure, error) {
	o = o.withDefaults()
	return sweep{
		id: "fig04", title: "Body sensors: accuracy vs training rate",
		xlabel: "train rate", xs: o.TrainingRates, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		genBases: func(_ float64, g *rng.RNG) ([]Base, error) { return o.genBases(g) },
		providersFor: func(_ float64, n int, g *rng.RNG) []int {
			return randomProviders(o.FixedProviders, n, g)
		},
		rateFor: func(x float64) float64 { return x },
		cfgFor: func(float64) MethodsConfig {
			return MethodsConfig{Core: o.coreConfig()}
		},
	}.run()
}

// ---------------------------------------------------------------------
// HAR figures (paper §VI-C, Figs 5–7).

// HAROptions parameterize the smartphone (HAR) experiments.
type HAROptions struct {
	CohortOptions
	// Users and PerClass size the cohort (defaults 30 / 50).
	Users, PerClass int
	// Dim is the feature dimensionality (default 561).
	Dim int
	// ProviderCounts is Fig 5's x axis (default 6..27 step 3).
	ProviderCounts []int
	LabelRate      float64 // default 0.06
	// TrainingRates is Fig 6's x axis (default 0.04..0.48 step 0.04).
	TrainingRates  []float64
	FixedProviders int // default 15
	// LogLambdas is Fig 7's x axis (default 0..4 step 0.5).
	LogLambdas []float64
}

func (o HAROptions) withDefaults() HAROptions {
	o.CohortOptions = o.CohortOptions.withDefaults()
	if o.Users <= 0 {
		o.Users = 30
	}
	if o.PerClass <= 0 {
		o.PerClass = 50
	}
	if o.Dim <= 0 {
		o.Dim = 561
	}
	if len(o.ProviderCounts) == 0 {
		for c := 6; c <= 27; c += 3 {
			o.ProviderCounts = append(o.ProviderCounts, c)
		}
	}
	if o.LabelRate <= 0 {
		o.LabelRate = 0.06
	}
	if len(o.TrainingRates) == 0 {
		for r := 0.04; r <= 0.4801; r += 0.04 {
			o.TrainingRates = append(o.TrainingRates, r)
		}
	}
	if o.FixedProviders <= 0 {
		o.FixedProviders = 15
	}
	if len(o.LogLambdas) == 0 {
		for l := 0.0; l <= 4.001; l += 0.5 {
			o.LogLambdas = append(o.LogLambdas, l)
		}
	}
	return o
}

func (o HAROptions) genBases(g *rng.RNG) ([]Base, error) {
	ds, err := har.Generate(har.Config{Users: o.Users, PerClass: o.PerClass, Dim: o.Dim, Bias: true}, g)
	if err != nil {
		return nil, err
	}
	bases := make([]Base, len(ds.Users))
	for i, u := range ds.Users {
		bases[i] = Base{X: u.X, Truth: u.Truth}
	}
	return bases, nil
}

// Fig5 reproduces Figure 5: HAR accuracy vs # label providers.
func Fig5(o HAROptions) (Figure, Figure, error) {
	o = o.withDefaults()
	xs := make([]float64, len(o.ProviderCounts))
	for i, c := range o.ProviderCounts {
		xs[i] = float64(c)
	}
	return sweep{
		id: "fig05", title: "HAR: accuracy vs # label providers",
		xlabel: "#providers", xs: xs, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		genBases: func(_ float64, g *rng.RNG) ([]Base, error) { return o.genBases(g) },
		providersFor: func(x float64, n int, g *rng.RNG) []int {
			return randomProviders(int(x), n, g)
		},
		rateFor: func(float64) float64 { return o.LabelRate },
		cfgFor: func(float64) MethodsConfig {
			return MethodsConfig{Core: o.coreConfig()}
		},
	}.run()
}

// Fig6 reproduces Figure 6: HAR accuracy vs training rate.
func Fig6(o HAROptions) (Figure, Figure, error) {
	o = o.withDefaults()
	return sweep{
		id: "fig06", title: "HAR: accuracy vs training rate",
		xlabel: "train rate", xs: o.TrainingRates, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		genBases: func(_ float64, g *rng.RNG) ([]Base, error) { return o.genBases(g) },
		providersFor: func(_ float64, n int, g *rng.RNG) []int {
			return randomProviders(o.FixedProviders, n, g)
		},
		rateFor: func(x float64) float64 { return x },
		cfgFor: func(float64) MethodsConfig {
			return MethodsConfig{Core: o.coreConfig()}
		},
	}.run()
}

// Fig7 reproduces Figure 7: PLOS accuracy as a function of log10(λ) — the
// personalization↔globalization ablation.
func Fig7(o HAROptions) (Figure, Figure, error) {
	o = o.withDefaults()
	return sweep{
		id: "fig07", title: "HAR: PLOS accuracy vs log10(lambda)",
		xlabel: "log10(lambda)", xs: o.LogLambdas, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		skip:     []string{MethodAll, MethodGroup, MethodSingle},
		genBases: func(_ float64, g *rng.RNG) ([]Base, error) { return o.genBases(g) },
		providersFor: func(_ float64, n int, g *rng.RNG) []int {
			return randomProviders(o.FixedProviders, n, g)
		},
		rateFor: func(float64) float64 { return o.LabelRate },
		cfgFor: func(x float64) MethodsConfig {
			cfg := o.coreConfig()
			cfg.Lambda = math.Pow(10, x)
			return MethodsConfig{Core: cfg}
		},
	}.run()
}

// ---------------------------------------------------------------------
// Synthetic figures (paper §VI-D, Figs 8–10).

// SynthOptions parameterize the synthetic experiments.
type SynthOptions struct {
	CohortOptions
	// UsersCount is the population size (default 10).
	UsersCount int
	// PerClass is points per class per user (default 200).
	PerClass int
	// RotationAngles is Fig 8's x axis (default 0..π step π/6).
	RotationAngles []float64
	// MaxAngle is Figs 9–10's fixed rotation (default π/2).
	MaxAngle float64
	// Fig8Providers/Fig8Labels: 5 providers × 8 labels (paper).
	Fig8Providers int
	Fig8Rate      float64
	// ProviderCounts is Fig 9's x axis (default 1..10); Fig9Rate its
	// labeling rate (default 0.02).
	ProviderCounts []int
	Fig9Rate       float64
	// TrainingRates is Fig 10's x axis (default 0.01..0.10); Fig10
	// uses FixedProviders providers (default 5).
	TrainingRates  []float64
	FixedProviders int
}

func (o SynthOptions) withDefaults() SynthOptions {
	o.CohortOptions = o.CohortOptions.withDefaults()
	if o.UsersCount <= 0 {
		o.UsersCount = 10
	}
	if o.PerClass <= 0 {
		o.PerClass = 200
	}
	if len(o.RotationAngles) == 0 {
		for k := 0; k <= 6; k++ {
			o.RotationAngles = append(o.RotationAngles, float64(k)*math.Pi/6)
		}
	}
	if o.MaxAngle == 0 {
		o.MaxAngle = math.Pi / 2
	}
	if o.Fig8Providers <= 0 {
		o.Fig8Providers = 5
	}
	if o.Fig8Rate <= 0 {
		o.Fig8Rate = 0.02 // 8 of 400 samples
	}
	if len(o.ProviderCounts) == 0 {
		for c := 1; c <= 10; c++ {
			o.ProviderCounts = append(o.ProviderCounts, c)
		}
	}
	if o.Fig9Rate <= 0 {
		o.Fig9Rate = 0.02
	}
	if len(o.TrainingRates) == 0 {
		for r := 0.01; r <= 0.1001; r += 0.01 {
			o.TrainingRates = append(o.TrainingRates, r)
		}
	}
	if o.FixedProviders <= 0 {
		o.FixedProviders = 5
	}
	return o
}

func (o SynthOptions) genBases(maxAngle float64, g *rng.RNG) ([]Base, error) {
	users, err := dataset.Population(o.UsersCount, maxAngle,
		dataset.SynthConfig{PerClass: o.PerClass}, g)
	if err != nil {
		return nil, err
	}
	bases := make([]Base, len(users))
	for i, u := range users {
		bases[i] = Base{X: svm.AugmentBias(u.X), Truth: u.Truth}
	}
	return bases, nil
}

// Fig8 reproduces Figure 8: synthetic accuracy vs the maximum rotation
// angle between users (the user-difference knob).
func Fig8(o SynthOptions) (Figure, Figure, error) {
	o = o.withDefaults()
	return sweep{
		id: "fig08", title: "Synthetic: accuracy vs rotation angle",
		xlabel: "max angle", xs: o.RotationAngles, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		genBases: func(x float64, g *rng.RNG) ([]Base, error) { return o.genBases(x, g) },
		providersFor: func(_ float64, n int, g *rng.RNG) []int {
			return randomProviders(o.Fig8Providers, n, g)
		},
		rateFor: func(float64) float64 { return o.Fig8Rate },
		cfgFor: func(float64) MethodsConfig {
			return MethodsConfig{Core: o.coreConfig()}
		},
	}.run()
}

// Fig9 reproduces Figure 9: synthetic accuracy vs # label providers at a
// fixed π/2 rotation.
func Fig9(o SynthOptions) (Figure, Figure, error) {
	o = o.withDefaults()
	xs := make([]float64, len(o.ProviderCounts))
	for i, c := range o.ProviderCounts {
		xs[i] = float64(c)
	}
	return sweep{
		id: "fig09", title: "Synthetic: accuracy vs # label providers",
		xlabel: "#providers", xs: xs, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		genBases: func(_ float64, g *rng.RNG) ([]Base, error) { return o.genBases(o.MaxAngle, g) },
		providersFor: func(x float64, n int, g *rng.RNG) []int {
			return randomProviders(int(x), n, g)
		},
		rateFor: func(float64) float64 { return o.Fig9Rate },
		cfgFor: func(float64) MethodsConfig {
			return MethodsConfig{Core: o.coreConfig()}
		},
	}.run()
}

// Fig10 reproduces Figure 10: synthetic accuracy vs training rate.
func Fig10(o SynthOptions) (Figure, Figure, error) {
	o = o.withDefaults()
	return sweep{
		id: "fig10", title: "Synthetic: accuracy vs training rate",
		xlabel: "train rate", xs: o.TrainingRates, trials: o.Trials, workers: o.Workers, seed: o.Seed,
		genBases: func(_ float64, g *rng.RNG) ([]Base, error) { return o.genBases(o.MaxAngle, g) },
		providersFor: func(_ float64, n int, g *rng.RNG) []int {
			return randomProviders(o.FixedProviders, n, g)
		},
		rateFor: func(x float64) float64 { return x },
		cfgFor: func(float64) MethodsConfig {
			return MethodsConfig{Core: o.coreConfig()}
		},
	}.run()
}

// ---------------------------------------------------------------------
// Distributed-system figures (paper §VI-E, Figs 11–13).

// ScaleOptions parameterize the scalability experiments.
type ScaleOptions struct {
	CohortOptions
	// UserCounts is the x axis (default 10..100 step 10).
	UserCounts []int
	// PerClass is points per class per user (default 50; the paper used
	// its full synthetic setup).
	PerClass int
	// ProviderFrac of users provide labels at LabelRate (defaults 0.5 /
	// 0.02).
	ProviderFrac float64
	LabelRate    float64
	// MaxAngle is the rotation spread (default π/2).
	MaxAngle float64
	// Phone scales distributed compute to device time for Fig 12.
	Phone cost.DeviceProfile
	// Dist overrides ADMM knobs (paper: ρ=1, ε_abs=1e-3).
	Dist core.DistConfig
}

func (o ScaleOptions) withDefaults() ScaleOptions {
	o.CohortOptions = o.CohortOptions.withDefaults()
	if len(o.UserCounts) == 0 {
		for c := 10; c <= 100; c += 10 {
			o.UserCounts = append(o.UserCounts, c)
		}
	}
	if o.PerClass <= 0 {
		o.PerClass = 50
	}
	if o.ProviderFrac <= 0 {
		o.ProviderFrac = 0.5
	}
	if o.LabelRate <= 0 {
		o.LabelRate = 0.02
	}
	if o.MaxAngle == 0 {
		o.MaxAngle = math.Pi / 2
	}
	return o
}

func (o ScaleOptions) buildUsers(tCount int, g *rng.RNG) ([]core.UserData, [][]float64, []int, error) {
	synth := SynthOptions{CohortOptions: o.CohortOptions, UsersCount: tCount, PerClass: o.PerClass}
	bases, err := synth.withDefaults().genBases(o.MaxAngle, g.Split("gen"))
	if err != nil {
		return nil, nil, nil, err
	}
	nProv := int(math.Round(o.ProviderFrac * float64(tCount)))
	if nProv < 1 {
		nProv = 1
	}
	providers := randomProviders(nProv, tCount, g.Split("providers"))
	users, truths, err := Assemble(bases, providers, o.LabelRate, g.Split("assemble"), o.Workers)
	return users, truths, providers, err
}

// Fig11 reproduces Figure 11: the accuracy difference between distributed
// and centralized PLOS across population sizes (two panels).
func Fig11(o ScaleOptions) (Figure, Figure, error) {
	o = o.withDefaults()
	root := rng.New(o.Seed)
	xs := make([]float64, len(o.UserCounts))
	var diffLabeled, diffUnlabeled []float64
	for i, tCount := range o.UserCounts {
		xs[i] = float64(tCount)
		// Independent trials fan out; the diffs fold in trial order below.
		type diff struct{ dl, du float64 }
		diffs, err := parallel.Map(o.Workers, o.Trials, func(trial int) (diff, error) {
			g := root.SplitN(fmt.Sprintf("fig11-%d", tCount), trial)
			users, truths, providers, err := o.buildUsers(tCount, g)
			if err != nil {
				return diff{}, err
			}
			cfg := MethodsConfig{Core: o.coreConfig(),
				Skip: []string{MethodAll, MethodGroup, MethodSingle}}
			cent, err := RunMethods(users, truths, providers, cfg, g.Split("cent"))
			if err != nil {
				return diff{}, fmt.Errorf("eval: Fig11 centralized: %w", err)
			}
			cfg.Distributed = true
			cfg.Dist = o.Dist
			dist, err := RunMethods(users, truths, providers, cfg, g.Split("dist"))
			if err != nil {
				return diff{}, fmt.Errorf("eval: Fig11 distributed: %w", err)
			}
			return diff{
				dl: dist[MethodPLOS].Labeled - cent[MethodPLOS].Labeled,
				du: dist[MethodPLOS].Unlabeled - cent[MethodPLOS].Unlabeled,
			}, nil
		})
		if err != nil {
			return Figure{}, Figure{}, err
		}
		var dl, du float64
		for _, d := range diffs {
			dl += d.dl
			du += d.du
		}
		diffLabeled = append(diffLabeled, dl/float64(o.Trials))
		diffUnlabeled = append(diffUnlabeled, du/float64(o.Trials))
	}
	a := Figure{ID: "fig11a", Title: "Distributed − centralized accuracy — users with labels",
		XLabel: "#users", X: xs,
		Curves: []Curve{{Name: "diff", Y: diffLabeled}}}
	b := Figure{ID: "fig11b", Title: "Distributed − centralized accuracy — users w/o labels",
		XLabel: "#users", X: xs,
		Curves: []Curve{{Name: "diff", Y: diffUnlabeled}}}
	return a, b, nil
}

// Fig12 reproduces Figure 12: running time of centralized PLOS (on the
// server) vs distributed PLOS (devices solving in parallel, wall-clock
// dominated by the slowest device per round, scaled to phone speed).
func Fig12(o ScaleOptions) (Figure, error) {
	o = o.withDefaults()
	root := rng.New(o.Seed)
	xs := make([]float64, len(o.UserCounts))
	var centY, distY []float64
	for i, tCount := range o.UserCounts {
		xs[i] = float64(tCount)
		var centSum, distSum float64
		// Trials stay sequential on purpose: this figure measures wall
		// clock, and concurrent trials would contend for the same cores.
		for trial := 0; trial < o.Trials; trial++ {
			g := root.SplitN(fmt.Sprintf("fig12-%d", tCount), trial)
			users, _, _, err := o.buildUsers(tCount, g)
			if err != nil {
				return Figure{}, err
			}
			start := time.Now()
			if _, _, err := core.TrainCentralized(users, o.coreConfig()); err != nil {
				return Figure{}, fmt.Errorf("eval: Fig12 centralized: %w", err)
			}
			centSum += time.Since(start).Seconds()

			costs, err := DistributedSimCosts(users, o.coreConfig(), o.Dist, o.Phone)
			if err != nil {
				return Figure{}, fmt.Errorf("eval: Fig12 distributed: %w", err)
			}
			distSum += costs.WallClock.Seconds()
		}
		centY = append(centY, centSum/float64(o.Trials))
		distY = append(distY, distSum/float64(o.Trials))
	}
	return Figure{ID: "fig12", Title: "Running time: centralized (server) vs distributed (phones)",
		XLabel: "#users", X: xs,
		Curves: []Curve{
			{Name: "Centralized", Y: centY},
			{Name: "Distributed", Y: distY},
		}}, nil
}

// SimCosts is what a phone deployment of distributed PLOS would spend, read
// off an in-process training.
type SimCosts struct {
	// WallClock is the deployment's elapsed ADMM time: devices solve side by
	// side, so each iteration costs its slowest device solve (at phone
	// speed) plus the server's consensus step.
	WallClock time.Duration
	// MeanDeviceCompute is the average per-device compute time at phone
	// speed (drives the energy model).
	MeanDeviceCompute time.Duration
}

// DistributedSimCosts trains with core.TrainDistributed, one device solve at
// a time so each is timed alone on its core, and scales the durations the
// trainer reports to the phone.
func DistributedSimCosts(users []core.UserData, cfg core.Config, dcfg core.DistConfig,
	phone cost.DeviceProfile) (SimCosts, error) {
	dcfg.Workers = 1
	_, info, err := core.TrainDistributed(users, cfg, dcfg)
	if err != nil {
		return SimCosts{}, err
	}
	return SimCosts{
		WallClock:         phone.DeviceTime(info.SlowestSolveTime) + info.FoldTime,
		MeanDeviceCompute: phone.DeviceTime(info.SolveTime / time.Duration(len(users))),
	}, nil
}

// EnergyComparison quantifies the paper's §V energy claim: per-user energy
// of distributed training (on-device compute + parameter-exchange radio)
// against what the centralized design costs the same device (uploading its
// raw samples; training happens on the server). Reported in joules per
// user across population sizes.
func EnergyComparison(o ScaleOptions) (Figure, error) {
	o = o.withDefaults()
	phone := o.Phone
	root := rng.New(o.Seed)
	xs := make([]float64, len(o.UserCounts))
	var distY, rawY []float64
	for i, tCount := range o.UserCounts {
		xs[i] = float64(tCount)
		var distSum, rawSum float64
		// Sequential trials: the energy model is driven by measured device
		// compute time, which parallel trials would distort.
		for trial := 0; trial < o.Trials; trial++ {
			g := root.SplitN(fmt.Sprintf("energy-%d", tCount), trial)
			users, _, _, err := o.buildUsers(tCount, g)
			if err != nil {
				return Figure{}, err
			}
			costs, err := DistributedSimCosts(users, o.coreConfig(), o.Dist, phone)
			if err != nil {
				return Figure{}, fmt.Errorf("eval: EnergyComparison: %w", err)
			}
			kbPerUser, err := perUserTrafficKB(users, protocol.ServerConfig{
				Core: o.coreConfig(), Dist: o.Dist,
			})
			if err != nil {
				return Figure{}, fmt.Errorf("eval: EnergyComparison: %w", err)
			}
			traffic := transport.Stats{BytesSent: int64(kbPerUser * 1024)}
			distSum += phone.ComputeEnergyJ(costs.MeanDeviceCompute) + phone.CommEnergyJ(traffic)

			// Centralized alternative: the device radios its raw samples.
			u := users[0]
			raw := cost.RawUploadBytes(u.NumSamples(), u.X.Cols)
			rawSum += phone.CommEnergyJ(transport.Stats{BytesSent: raw, MessagesSent: 1})
		}
		distY = append(distY, distSum/float64(o.Trials))
		rawY = append(rawY, rawSum/float64(o.Trials))
	}
	return Figure{ID: "energy", Title: "Per-user energy: distributed PLOS vs raw upload (J)",
		XLabel: "#users", X: xs,
		Curves: []Curve{
			{Name: "Distributed J", Y: distY},
			{Name: "RawUpload J", Y: rawY},
		}}, nil
}

// Fig13 reproduces Figure 13: the per-user message overhead (KB) of the
// wire protocol across population sizes, measured on real transport
// connections (in-process pipes with deterministic wire sizes).
func Fig13(o ScaleOptions) (Figure, error) {
	o = o.withDefaults()
	root := rng.New(o.Seed)
	xs := make([]float64, len(o.UserCounts))
	var kbY []float64
	for i, tCount := range o.UserCounts {
		xs[i] = float64(tCount)
		// Byte counts are exact (not timed), so the trials fan out safely.
		kbs, err := parallel.Map(o.Workers, o.Trials, func(trial int) (float64, error) {
			g := root.SplitN(fmt.Sprintf("fig13-%d", tCount), trial)
			users, _, _, err := o.buildUsers(tCount, g)
			if err != nil {
				return 0, err
			}
			kb, err := perUserTrafficKB(users, protocol.ServerConfig{
				Core: o.coreConfig(), Dist: o.Dist,
			})
			if err != nil {
				return 0, fmt.Errorf("eval: Fig13: %w", err)
			}
			return kb, nil
		})
		if err != nil {
			return Figure{}, err
		}
		var sum float64
		for _, kb := range kbs {
			sum += kb
		}
		kbY = append(kbY, sum/float64(o.Trials))
	}
	return Figure{ID: "fig13", Title: "Per-user message overhead of distributed PLOS",
		XLabel: "#users", X: xs,
		Curves: []Curve{{Name: "KB/user", Y: kbY}}}, nil
}

// perUserTrafficKB trains over in-process pipes and averages each user's
// total traffic.
func perUserTrafficKB(users []core.UserData, cfg protocol.ServerConfig) (float64, error) {
	n := len(users)
	serverConns := make([]transport.Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sc, cc := transport.Pipe()
		serverConns[i] = sc
		wg.Add(1)
		go func(i int, conn transport.Conn) {
			defer wg.Done()
			_, _ = protocol.RunClient(conn, users[i], protocol.ClientOptions{Seed: int64(i)})
		}(i, cc)
	}
	res, err := protocol.RunServer(serverConns, cfg)
	if err != nil {
		return 0, err
	}
	wg.Wait()
	var totalKB float64
	for _, s := range res.PerUser {
		totalKB += float64(s.BytesSent+s.BytesReceived) / 1024
	}
	return totalKB / float64(n), nil
}

// AblationCu compares PLOS with and without the unlabeled loss term on a
// synthetic cohort: the semi-supervised term is what lets zero-label users
// benefit (DESIGN.md §5).
func AblationCu(o SynthOptions) (Figure, error) {
	o = o.withDefaults()
	root := rng.New(o.Seed)
	var withCu, withoutCu float64
	for trial := 0; trial < o.Trials; trial++ {
		g := root.SplitN("ablation-cu", trial)
		bases, err := o.genBases(o.MaxAngle, g.Split("gen"))
		if err != nil {
			return Figure{}, err
		}
		providers := randomProviders(o.FixedProviders, len(bases), g.Split("providers"))
		users, truths, err := Assemble(bases, providers, o.Fig9Rate, g.Split("assemble"), o.Workers)
		if err != nil {
			return Figure{}, err
		}
		skip := []string{MethodAll, MethodGroup, MethodSingle}
		on, err := RunMethods(users, truths, providers,
			MethodsConfig{Core: o.coreConfig(), Skip: skip}, g.Split("on"))
		if err != nil {
			return Figure{}, err
		}
		offCfg := o.coreConfig()
		offCfg.Cu = -1 // disables the unlabeled term
		off, err := RunMethods(users, truths, providers,
			MethodsConfig{Core: offCfg, Skip: skip}, g.Split("off"))
		if err != nil {
			return Figure{}, err
		}
		withCu += on[MethodPLOS].Unlabeled
		withoutCu += off[MethodPLOS].Unlabeled
	}
	tr := float64(o.Trials)
	return Figure{ID: "ablation-cu", Title: "Unlabeled-term ablation (accuracy on users w/o labels)",
		XLabel: "variant", X: []float64{0, 1},
		Curves: []Curve{{Name: "PLOS", Y: []float64{withoutCu / tr, withCu / tr}}}}, nil
}

// AblationBalanceGuard measures the class-balance heuristic on an
// all-unlabeled population, where unguarded max-margin clustering can
// collapse to the trivial one-sided assignment (DESIGN.md §5).
func AblationBalanceGuard(o SynthOptions) (Figure, error) {
	o = o.withDefaults()
	root := rng.New(o.Seed)
	var offAcc, onAcc float64
	for trial := 0; trial < o.Trials; trial++ {
		g := root.SplitN("ablation-guard", trial)
		bases, err := o.genBases(0, g.Split("gen")) // homogeneous users
		if err != nil {
			return Figure{}, err
		}
		// Nobody labels anything: pure joint clustering.
		users, truths, err := Assemble(bases, nil, 0, g.Split("assemble"), o.Workers)
		if err != nil {
			return Figure{}, err
		}
		for _, guard := range []bool{false, true} {
			cfg := o.coreConfig()
			cfg.BalanceGuard = guard
			model, _, err := core.TrainCentralized(users, cfg)
			if err != nil {
				return Figure{}, err
			}
			var acc float64
			for t, u := range users {
				pred := make([]float64, u.X.Rows)
				for i := 0; i < u.X.Rows; i++ {
					pred[i] = model.PredictUser(t, u.X.Row(i))
				}
				// Unsupervised: evaluate under the better polarity.
				acc += Accuracy(pred, truths[t], true)
			}
			acc /= float64(len(users))
			if guard {
				onAcc += acc
			} else {
				offAcc += acc
			}
		}
	}
	tr := float64(o.Trials)
	return Figure{ID: "ablation-guard", Title: "Balance-guard ablation (all users unlabeled, matched accuracy)",
		XLabel: "off=0 on=1", X: []float64{0, 1},
		Curves: []Curve{{Name: "PLOS", Y: []float64{offAcc / tr, onAcc / tr}}}}, nil
}

// AblationAsync compares the synchronous and asynchronous distributed
// trainers (accuracy and local-solve counts) on the same cohort — the
// paper's §VII future-work scenario.
func AblationAsync(o SynthOptions) (Figure, error) {
	o = o.withDefaults()
	root := rng.New(o.Seed)
	var syncAcc, asyncAcc, syncSolves, asyncSolves float64
	for trial := 0; trial < o.Trials; trial++ {
		g := root.SplitN("ablation-async", trial)
		bases, err := o.genBases(o.MaxAngle, g.Split("gen"))
		if err != nil {
			return Figure{}, err
		}
		providers := randomProviders(o.FixedProviders, len(bases), g.Split("providers"))
		users, truths, err := Assemble(bases, providers, o.Fig9Rate, g.Split("assemble"), o.Workers)
		if err != nil {
			return Figure{}, err
		}
		evalAcc := func(m *core.Model) float64 {
			var acc float64
			for t, u := range users {
				pred := make([]float64, u.X.Rows)
				for i := 0; i < u.X.Rows; i++ {
					pred[i] = m.PredictUser(t, u.X.Row(i))
				}
				acc += Accuracy(pred, truths[t], false)
			}
			return acc / float64(len(users))
		}
		sm, sInfo, err := core.TrainDistributed(users, o.coreConfig(), core.DistConfig{})
		if err != nil {
			return Figure{}, err
		}
		syncAcc += evalAcc(sm)
		syncSolves += float64(sInfo.ADMMIterations * len(users))
		am, aInfo, err := core.TrainAsync(users, o.coreConfig(), core.AsyncConfig{})
		if err != nil {
			return Figure{}, err
		}
		asyncAcc += evalAcc(am)
		asyncSolves += float64(aInfo.ADMMIterations)
	}
	tr := float64(o.Trials)
	return Figure{ID: "ablation-async", Title: "Sync vs async distributed PLOS",
		XLabel: "sync=0 async=1", X: []float64{0, 1},
		Curves: []Curve{
			{Name: "accuracy", Y: []float64{syncAcc / tr, asyncAcc / tr}},
			{Name: "solves", Y: []float64{syncSolves / tr, asyncSolves / tr}},
		}}, nil
}

// AblationWarmSets compares cold (paper-faithful) and warm cutting-plane
// working sets across CCCP rounds: accuracy should match while warm sets
// typically cut solver work.
func AblationWarmSets(o SynthOptions) (Figure, error) {
	o = o.withDefaults()
	root := rng.New(o.Seed)
	var coldAcc, warmAcc, coldQP, warmQP float64
	for trial := 0; trial < o.Trials; trial++ {
		g := root.SplitN("ablation-warm", trial)
		bases, err := o.genBases(o.MaxAngle, g.Split("gen"))
		if err != nil {
			return Figure{}, err
		}
		providers := randomProviders(o.FixedProviders, len(bases), g.Split("providers"))
		users, truths, err := Assemble(bases, providers, o.Fig9Rate, g.Split("assemble"), o.Workers)
		if err != nil {
			return Figure{}, err
		}
		for _, warm := range []bool{false, true} {
			cfg := o.coreConfig()
			cfg.WarmWorkingSets = warm
			model, info, err := core.TrainCentralized(users, cfg)
			if err != nil {
				return Figure{}, err
			}
			var acc float64
			for t, u := range users {
				pred := make([]float64, u.X.Rows)
				for i := 0; i < u.X.Rows; i++ {
					pred[i] = model.PredictUser(t, u.X.Row(i))
				}
				acc += Accuracy(pred, truths[t], false)
			}
			acc /= float64(len(users))
			if warm {
				warmAcc += acc
				warmQP += float64(info.QPIterations)
			} else {
				coldAcc += acc
				coldQP += float64(info.QPIterations)
			}
		}
	}
	tr := float64(o.Trials)
	return Figure{ID: "ablation-warm", Title: "Working-set warm start ablation",
		XLabel: "cold=0 warm=1", X: []float64{0, 1},
		Curves: []Curve{
			{Name: "accuracy", Y: []float64{coldAcc / tr, warmAcc / tr}},
			{Name: "QP iters", Y: []float64{coldQP / tr, warmQP / tr}},
		}}, nil
}
