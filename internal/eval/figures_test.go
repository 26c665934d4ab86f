package eval

import (
	"math"
	"testing"

	"plos/internal/cost"
)

// The figure tests run miniature versions of each experiment and assert
// the qualitative shapes the paper reports, not absolute values — full-size
// runs live in bench_test.go and cmd/plos-bench.

func tinyCohort(trials int, seed int64) CohortOptions {
	return CohortOptions{Trials: trials, Seed: seed, Lambda: 50, Cl: 1, Cu: 0.2}
}

func curveByName(f Figure, name string) []float64 {
	for _, c := range f.Curves {
		if c.Name == name {
			return c.Y
		}
	}
	return nil
}

func meanOf(y []float64) float64 {
	var s float64
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}

func TestFig3Small(t *testing.T) {
	a, b, err := Fig3(BodyOptions{
		CohortOptions:  tinyCohort(2, 1),
		Subjects:       6,
		Segments:       25,
		ProviderCounts: []int{2, 4},
		LabelRate:      0.2,
	})
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if len(a.X) != 2 || len(b.X) != 2 {
		t.Fatalf("x axes: %v / %v", a.X, b.X)
	}
	for _, f := range []Figure{a, b} {
		if len(f.Curves) != 4 {
			t.Fatalf("%s: %d curves", f.ID, len(f.Curves))
		}
		for _, c := range f.Curves {
			for i, y := range c.Y {
				if y < 0.3 || y > 1 {
					t.Errorf("%s %s[%d] = %v out of range", f.ID, c.Name, i, y)
				}
			}
		}
	}
	// PLOS must not lose badly to Single on unlabeled users. Toy-scale
	// k-means variance is large, so the slack is generous — the full-size
	// ordering is asserted in EXPERIMENTS.md from the bench runs.
	plos := curveByName(b, MethodPLOS)
	single := curveByName(b, MethodSingle)
	if meanOf(plos) < meanOf(single)-0.1 {
		t.Errorf("PLOS (%v) below Single (%v) on unlabeled users", plos, single)
	}
}

func TestFig4Small(t *testing.T) {
	a, _, err := Fig4(BodyOptions{
		CohortOptions:  tinyCohort(1, 2),
		Subjects:       5,
		Segments:       12,
		TrainingRates:  []float64{0.1, 0.4},
		FixedProviders: 3,
	})
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	// More labels should not hurt PLOS on labeled users (loose check).
	plos := curveByName(a, MethodPLOS)
	if plos[len(plos)-1]+0.1 < plos[0] {
		t.Errorf("PLOS labeled accuracy dropped with more labels: %v", plos)
	}
}

func TestFig5And6Small(t *testing.T) {
	opt := HAROptions{
		CohortOptions:  tinyCohort(1, 3),
		Users:          8,
		PerClass:       15,
		Dim:            60,
		ProviderCounts: []int{3, 6},
		LabelRate:      0.25,
		TrainingRates:  []float64{0.2, 0.4},
		FixedProviders: 4,
	}
	a5, b5, err := Fig5(opt)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(a5.Curves) != 4 || len(b5.Curves) != 4 {
		t.Fatal("Fig5 should carry all four methods")
	}
	a6, _, err := Fig6(opt)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(a6.X) != 2 {
		t.Fatalf("Fig6 x = %v", a6.X)
	}
}

func TestFig7Small(t *testing.T) {
	a, b, err := Fig7(HAROptions{
		CohortOptions:  tinyCohort(1, 4),
		Users:          6,
		PerClass:       15,
		Dim:            50,
		LogLambdas:     []float64{0, 2, 4},
		FixedProviders: 3,
		LabelRate:      0.25,
	})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	// λ sweep carries only the PLOS curve.
	if len(a.Curves) != 1 || a.Curves[0].Name != MethodPLOS {
		t.Fatalf("Fig7 curves = %+v", a.Curves)
	}
	if len(curveByName(b, MethodPLOS)) != 3 {
		t.Fatal("Fig7b missing points")
	}
}

func TestFig8Small(t *testing.T) {
	a, _, err := Fig8(SynthOptions{
		CohortOptions:  tinyCohort(2, 5),
		UsersCount:     6,
		PerClass:       25,
		RotationAngles: []float64{0, math.Pi},
		Fig8Providers:  3,
		Fig8Rate:       0.16,
	})
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	// The defining shape: All degrades sharply as users rotate apart,
	// Single does not degrade (it is per-user).
	all := curveByName(a, MethodAll)
	if all[1] >= all[0]-0.05 {
		t.Errorf("All should degrade with rotation: %v", all)
	}
	single := curveByName(a, MethodSingle)
	if single[1] < single[0]-0.15 {
		t.Errorf("Single should be rotation-insensitive: %v", single)
	}
}

func TestFig9And10Small(t *testing.T) {
	opt := SynthOptions{
		CohortOptions:  tinyCohort(1, 6),
		UsersCount:     6,
		PerClass:       25,
		ProviderCounts: []int{2, 4},
		Fig9Rate:       0.16,
		TrainingRates:  []float64{0.1, 0.2},
		FixedProviders: 3,
	}
	a9, _, err := Fig9(opt)
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(a9.X) != 2 {
		t.Fatal("Fig9 x axis")
	}
	_, b10, err := Fig10(opt)
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	if len(b10.Curves) != 4 {
		t.Fatal("Fig10 curves")
	}
}

func TestFig11Small(t *testing.T) {
	a, b, err := Fig11(ScaleOptions{
		CohortOptions: tinyCohort(1, 7),
		UserCounts:    []int{4},
		PerClass:      15,
		LabelRate:     0.2,
	})
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	// Paper: the distributed−centralized difference is close to zero.
	for _, f := range []Figure{a, b} {
		d := f.Curves[0].Y[0]
		if math.Abs(d) > 0.12 {
			t.Errorf("%s: |distributed − centralized| = %v too large", f.ID, d)
		}
	}
}

func TestFig12Small(t *testing.T) {
	f, err := Fig12(ScaleOptions{
		CohortOptions: tinyCohort(1, 8),
		UserCounts:    []int{3, 6},
		PerClass:      10,
		LabelRate:     0.2,
		Phone:         cost.DeviceProfile{CPUSlowdown: 1}, // keep the test fast
	})
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	cent := curveByName(f, "Centralized")
	dist := curveByName(f, "Distributed")
	if len(cent) != 2 || len(dist) != 2 {
		t.Fatalf("curves: %v / %v", cent, dist)
	}
	for i := range cent {
		if cent[i] <= 0 || dist[i] <= 0 {
			t.Errorf("non-positive timing at %d: %v / %v", i, cent[i], dist[i])
		}
	}
}

func TestFig13Small(t *testing.T) {
	f, err := Fig13(ScaleOptions{
		CohortOptions: tinyCohort(1, 9),
		UserCounts:    []int{3, 6},
		PerClass:      10,
		LabelRate:     0.2,
	})
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	kb := f.Curves[0].Y
	for i, v := range kb {
		if v <= 0 {
			t.Errorf("KB[%d] = %v", i, v)
		}
	}
	// Per-user overhead must stay roughly flat as the population grows
	// (paper Fig 13: "remains stable regardless of the number of users");
	// allow generous slack at toy scale.
	if kb[1] > kb[0]*3 {
		t.Errorf("per-user traffic scales with population: %v", kb)
	}
}

func TestAblations(t *testing.T) {
	opt := SynthOptions{
		CohortOptions:  tinyCohort(1, 10),
		UsersCount:     5,
		PerClass:       20,
		FixedProviders: 2,
		Fig9Rate:       0.2,
	}
	cu, err := AblationCu(opt)
	if err != nil {
		t.Fatalf("AblationCu: %v", err)
	}
	if len(cu.Curves[0].Y) != 2 {
		t.Fatal("AblationCu shape")
	}
	warm, err := AblationWarmSets(opt)
	if err != nil {
		t.Fatalf("AblationWarmSets: %v", err)
	}
	accs := curveByName(warm, "accuracy")
	if math.Abs(accs[0]-accs[1]) > 0.1 {
		t.Errorf("warm working sets changed accuracy too much: %v", accs)
	}
}

func TestAblationBalanceGuard(t *testing.T) {
	f, err := AblationBalanceGuard(SynthOptions{
		CohortOptions: tinyCohort(1, 11),
		UsersCount:    4,
		PerClass:      20,
	})
	if err != nil {
		t.Fatalf("AblationBalanceGuard: %v", err)
	}
	y := f.Curves[0].Y
	if len(y) != 2 {
		t.Fatalf("shape: %v", y)
	}
	// Matched accuracy is always >= 0.5; the guard must not be worse than
	// chance and should not collapse.
	if y[1] < 0.5 {
		t.Errorf("guarded accuracy = %v", y[1])
	}
}

func TestAblationAsync(t *testing.T) {
	f, err := AblationAsync(SynthOptions{
		CohortOptions:  tinyCohort(1, 12),
		UsersCount:     4,
		PerClass:       20,
		FixedProviders: 2,
		Fig9Rate:       0.2,
	})
	if err != nil {
		t.Fatalf("AblationAsync: %v", err)
	}
	accs := curveByName(f, "accuracy")
	if math.Abs(accs[0]-accs[1]) > 0.15 {
		t.Errorf("sync vs async accuracy gap: %v", accs)
	}
	solves := curveByName(f, "solves")
	if solves[0] <= 0 || solves[1] <= 0 {
		t.Errorf("solve counts: %v", solves)
	}
}

func TestEnergyComparison(t *testing.T) {
	f, err := EnergyComparison(ScaleOptions{
		CohortOptions: tinyCohort(1, 13),
		UserCounts:    []int{3},
		PerClass:      10,
		LabelRate:     0.2,
	})
	if err != nil {
		t.Fatalf("EnergyComparison: %v", err)
	}
	dist := curveByName(f, "Distributed J")
	raw := curveByName(f, "RawUpload J")
	if len(dist) != 1 || len(raw) != 1 {
		t.Fatalf("curves: %v / %v", dist, raw)
	}
	if dist[0] <= 0 || raw[0] <= 0 {
		t.Errorf("energies must be positive: %v / %v", dist[0], raw[0])
	}
}

func TestDistributedSimCosts(t *testing.T) {
	opts := ScaleOptions{
		CohortOptions: tinyCohort(1, 14),
		UserCounts:    []int{3},
		PerClass:      10,
		LabelRate:     0.2,
	}.withDefaults()
	users, _, _, err := opts.buildUsers(3, rngNew(14))
	if err != nil {
		t.Fatal(err)
	}
	costs, err := DistributedSimCosts(users, opts.coreConfig(), opts.Dist,
		cost.DeviceProfile{CPUSlowdown: 2})
	if err != nil {
		t.Fatalf("DistributedSimCosts: %v", err)
	}
	if costs.WallClock <= 0 || costs.MeanDeviceCompute <= 0 {
		t.Errorf("costs = %+v", costs)
	}
	// The wall clock sums each iteration's slowest solve of the training
	// core.TrainDistributed ran, so it is at least the mean per-device
	// compute of that same training.
	if costs.WallClock < costs.MeanDeviceCompute {
		t.Errorf("wall clock %v below mean device compute %v",
			costs.WallClock, costs.MeanDeviceCompute)
	}
}
