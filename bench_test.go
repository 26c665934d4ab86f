package plos

// The benchmark harness: one benchmark per figure of the paper's
// evaluation (Figures 3–13 — the paper has no numbered tables), plus
// micro-benchmarks of the substrates the solvers are built on. Each figure
// benchmark runs a reduced-size version of the experiment per iteration
// and logs the regenerated series; paper-scale runs are available through
// cmd/plos-bench -full. EXPERIMENTS.md records paper-vs-measured shapes.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"plos/internal/cluster"
	"plos/internal/cost"
	"plos/internal/eval"
	"plos/internal/features"
	"plos/internal/mat"
	"plos/internal/parallel"
	"plos/internal/qp"
	"plos/internal/rng"
	"plos/internal/svm"
	"plos/internal/transport"
)

func benchCohort(seed int64) eval.CohortOptions {
	return eval.CohortOptions{Trials: 3, Seed: seed, Lambda: 100, Cl: 1, Cu: 0.2}
}

func benchBody() eval.BodyOptions {
	return eval.BodyOptions{
		CohortOptions:  benchCohort(3),
		Subjects:       8,
		Segments:       15,
		ProviderCounts: []int{2, 4, 6},
		FixedProviders: 4,
		TrainingRates:  []float64{0.1, 0.25, 0.4},
	}
}

func benchHAR() eval.HAROptions {
	return eval.HAROptions{
		CohortOptions:  benchCohort(5),
		Users:          10,
		PerClass:       20,
		Dim:            120,
		ProviderCounts: []int{3, 6, 9},
		FixedProviders: 5,
		TrainingRates:  []float64{0.1, 0.25, 0.4},
		LogLambdas:     []float64{0, 1, 2, 3, 4},
	}
}

func benchSynth() eval.SynthOptions {
	// PerClass is reduced 4x from the paper's 200, so the labeling rates
	// are scaled 4x up to keep the *absolute* label counts the paper uses
	// (Fig 9: 2% of 400 = 8 labels per provider).
	return eval.SynthOptions{
		CohortOptions:  benchCohort(8),
		UsersCount:     8,
		PerClass:       50,
		ProviderCounts: []int{2, 4, 6},
		FixedProviders: 4,
		Fig8Rate:       0.08,
		Fig9Rate:       0.08,
		TrainingRates:  []float64{0.08, 0.16, 0.24, 0.32},
	}
}

func benchScale() eval.ScaleOptions {
	return eval.ScaleOptions{
		CohortOptions: benchCohort(11),
		UserCounts:    []int{5, 10, 20},
		PerClass:      20,
		LabelRate:     0.1,
	}
}

func logPanels(b *testing.B, panels ...eval.Figure) {
	b.Helper()
	for _, f := range panels {
		b.Log("\n" + f.Format())
	}
}

func BenchmarkFig03BodyLabelProviders(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig3(benchBody())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig04BodyTrainingRate(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig4(benchBody())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig05HARLabelProviders(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig5(benchHAR())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

// BenchmarkTrainParallel measures the worker-pool payoff on the Fig. 5 HAR
// workload: identical cohorts and seeds, only the WithWorkers count differs.
// The outputs are bit-identical by construction (determinism_test.go), so
// any time delta is pure scheduling.
func BenchmarkTrainParallel(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := benchHAR()
			opts.Workers = workers
			var pa, pb eval.Figure
			for i := 0; i < b.N; i++ {
				var err error
				pa, pb, err = eval.Fig5(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			logPanels(b, pa, pb)
		})
	}
}

// BenchmarkCutRound measures the incremental restricted-QP cache
// (DESIGN.md §11) against a from-scratch Gram rebuild on a Fig. 5-sized HAR
// workload forced through a deep cutting-plane loop (eval.MinCutRounds+
// rounds). The two arms produce bit-identical models (pinned by the
// internal/core cache tests), so the time delta is pure restricted-QP
// setup cost. docs/PERFORMANCE.md records the numbers.
func BenchmarkCutRound(b *testing.B) {
	for _, arm := range []struct {
		name    string
		rebuild bool
	}{{"incremental", false}, {"rebuild", true}} {
		b.Run(arm.name, func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				info, err := eval.CutRound(eval.CutRoundOptions{Rebuild: arm.rebuild, Seed: 17})
				if err != nil {
					b.Fatal(err)
				}
				rounds = info.CutRounds
			}
			b.ReportMetric(float64(rounds), "cutrounds")
		})
	}
}

// BenchmarkTrainParallelObserved is BenchmarkTrainParallel with a live
// observer attached — compare the two to measure the instrumentation
// overhead (the acceptance bar is <2%).
func BenchmarkTrainParallelObserved(b *testing.B) {
	ob := NewObserver()
	defer parallel.SetMetrics(nil)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := benchHAR()
			opts.Workers = workers
			opts.Obs = ob.registry()
			var pa, pb eval.Figure
			for i := 0; i < b.N; i++ {
				var err error
				pa, pb, err = eval.Fig5(opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			logPanels(b, pa, pb)
		})
	}
}

func BenchmarkFig06HARTrainingRate(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig6(benchHAR())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig07HARLambda(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig7(benchHAR())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig08SynthRotation(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig8(benchSynth())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig09SynthLabelProviders(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig9(benchSynth())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig10SynthTrainingRate(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig10(benchSynth())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig11DistributedAccuracy(b *testing.B) {
	var pa, pb eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		pa, pb, err = eval.Fig11(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, pa, pb)
}

func BenchmarkFig12RunningTime(b *testing.B) {
	var f eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		opts := benchScale()
		opts.Phone = cost.DeviceProfile{CPUSlowdown: 20}
		f, err = eval.Fig12(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, f)
}

func BenchmarkFig13MessageOverhead(b *testing.B) {
	var f eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = eval.Fig13(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, f)
}

func BenchmarkAblationCu(b *testing.B) {
	var f eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = eval.AblationCu(benchSynth())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, f)
}

func BenchmarkAblationWarmSets(b *testing.B) {
	var f eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = eval.AblationWarmSets(benchSynth())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, f)
}

func BenchmarkAblationBalanceGuard(b *testing.B) {
	var f eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = eval.AblationBalanceGuard(benchSynth())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, f)
}

func BenchmarkAblationAsync(b *testing.B) {
	var f eval.Figure
	for i := 0; i < b.N; i++ {
		var err error
		f, err = eval.AblationAsync(benchSynth())
		if err != nil {
			b.Fatal(err)
		}
	}
	logPanels(b, f)
}

func BenchmarkAsyncTrain(b *testing.B) {
	users := makeUsers(7, 6, 30, 0.15, func(i int) int {
		if i%2 == 0 {
			return 10
		}
		return 0
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainAsync(users, WithSeed(7)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelTrainRBF(b *testing.B) {
	users := ringBenchUsers(13, 4, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainKernel(users, RBFKernel(1), WithSeed(13)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelTrainRBFLarge is BenchmarkKernelTrainRBF's cohort at
// 2 000 samples, where the feature map reaches its rank cap.
func BenchmarkKernelTrainRBFLarge(b *testing.B) {
	users := ringBenchUsers(13, 4, 250)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainKernel(users, RBFKernel(1), WithSeed(13)); err != nil {
			b.Fatal(err)
		}
	}
}

// ringBenchUsers mirrors the kernel tests' radially separable cohort.
func ringBenchUsers(seed int64, count, perClass int) []User {
	g := rng.New(seed)
	users := make([]User, count)
	for t := 0; t < count; t++ {
		gu := g.SplitN("ring", t)
		u := User{}
		for i := 0; i < 2*perClass; i++ {
			cls := 1.0
			radius := 0.5 + 0.3*gu.Float64()
			if i%2 == 1 {
				cls = -1
				radius = 2.3 + 0.4*gu.Float64()
			}
			angle := gu.Float64() * 2 * math.Pi
			u.Features = append(u.Features, []float64{
				radius * math.Cos(angle), radius * math.Sin(angle),
			})
			if i < 10 {
				u.Labels = append(u.Labels, cls)
			}
		}
		users[t] = u
	}
	return users
}

// --- substrate micro-benchmarks ---

func BenchmarkCentralizedTrain(b *testing.B) {
	users := makeUsers(1, 6, 30, 0.15, func(i int) int {
		if i%2 == 0 {
			return 10
		}
		return 0
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(users, WithSeed(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedTrain(b *testing.B) {
	users := makeUsers(2, 6, 30, 0.15, func(i int) int {
		if i%2 == 0 {
			return 10
		}
		return 0
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainDistributed(users, WithSeed(2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQPSolve(b *testing.B) {
	g := rng.New(3)
	const n = 60
	m := mat.NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = g.Norm()
	}
	gram := m.Gram()
	c := g.NormVector(n)
	prob := &qp.Problem{G: gram, C: c, Groups: qp.GroupSpec{
		Groups:  [][]int{identityIdx(n)},
		Budgets: []float64{5},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := qp.Solve(prob, qp.Options{MaxIter: 20000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMTrain(b *testing.B) {
	g := rng.New(4)
	const n, d = 400, 120
	x := mat.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		cls := 1.0
		if i%2 == 1 {
			cls = -1
		}
		y[i] = cls
		for j := 0; j < d; j++ {
			x.Set(i, j, g.Norm()+cls*0.2)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svm.Train(x, y, svm.Params{C: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans(b *testing.B) {
	g := rng.New(5)
	const n, d = 500, 16
	x := mat.NewMatrix(n, d)
	for i := range x.Data {
		x.Data[i] = g.Norm()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(x, 3, rng.New(int64(i)), cluster.KMeansParams{Restarts: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeatureExtraction(b *testing.B) {
	g := rng.New(6)
	sigs := make([][]float64, features.SignalsPerNode)
	for i := range sigs {
		sigs[i] = make([]float64, 64)
		for j := range sigs[i] {
			sigs[i][j] = g.Norm()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.NodeFeatures(sigs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportPipeRoundTrip(b *testing.B) {
	a, peer := transport.Pipe()
	defer a.Close()
	defer peer.Close()
	go func() {
		for {
			m, err := peer.Recv()
			if err != nil {
				return
			}
			if err := peer.Send(m); err != nil {
				return
			}
		}
	}()
	msg := transport.Message{Type: transport.MsgParams, W0: make([]float64, 121), U: make([]float64, 121)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

func identityIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
