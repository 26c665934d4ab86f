package admm

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"plos/internal/mat"
	"plos/internal/obs"
)

// quadWorker returns the closed-form x-update for
// f_t(x) = ½||x − a_t||²: argmin f_t(x) + (ρ/2)||x − z + u||²
// = (a_t + ρ(z − u)) / (1 + ρ).
func quadWorker(targets []mat.Vector, rho float64) XUpdater {
	return func(t int, z, u mat.Vector) (mat.Vector, error) {
		x := mat.SubVec(z, u)
		x.Scale(rho)
		x.Add(targets[t])
		x.Scale(1 / (1 + rho))
		return x, nil
	}
}

func TestRunConsensusAveraging(t *testing.T) {
	// With g = 0, the consensus of quadratic workers is the mean of the
	// targets.
	targets := []mat.Vector{{1, 2}, {3, 4}, {5, 6}}
	cons, info, err := Run(2, 3, quadWorker(targets, 1), AverageZ, Options{EpsAbs: 1e-7, MaxIter: 2000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !info.Converged {
		t.Error("should converge")
	}
	want := mat.Vector{3, 4}
	if !cons.Z.Equal(want, 1e-4) {
		t.Errorf("z = %v, want %v", cons.Z, want)
	}
}

func TestRunSquaredNormProx(t *testing.T) {
	// g(z) = ||z||² shrinks the consensus: minimize ||z||² + Σ½||z−a_t||²
	// has closed form z* = Σa_t / (T + 2).
	targets := []mat.Vector{{4, 0}, {8, 0}}
	cons, _, err := Run(2, 2, quadWorker(targets, 1), SquaredNormZ, Options{EpsAbs: 1e-8, MaxIter: 5000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := mat.Vector{3, 0} // 12 / 4
	if !cons.Z.Equal(want, 1e-4) {
		t.Errorf("z = %v, want %v", cons.Z, want)
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	targets := []mat.Vector{{1, 1}, {2, -1}, {-3, 0}, {0, 5}}
	serial, _, err := Run(2, 4, quadWorker(targets, 1), AverageZ, Options{EpsAbs: 1e-8, MaxIter: 3000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := Run(2, 4, quadWorker(targets, 1), AverageZ,
		Options{EpsAbs: 1e-8, MaxIter: 3000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Z.Equal(parallel.Z, 1e-9) {
		t.Errorf("serial %v vs parallel %v", serial.Z, parallel.Z)
	}
}

func TestRunWorkerError(t *testing.T) {
	boom := errors.New("device offline")
	update := func(t int, z, u mat.Vector) (mat.Vector, error) {
		if t == 1 {
			return nil, boom
		}
		return mat.NewVector(2), nil
	}
	_, _, err := Run(2, 3, update, AverageZ, Options{})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped worker error", err)
	}
}

func TestRunMaxIterations(t *testing.T) {
	// A worker that never agrees: x_t alternates, consensus can't settle
	// in 1 iteration.
	targets := []mat.Vector{{100, 0}, {-100, 0}}
	_, info, err := Run(2, 2, quadWorker(targets, 1), AverageZ, Options{MaxIter: 1, EpsAbs: 1e-12})
	if !errors.Is(err, ErrMaxIterations) {
		t.Errorf("err = %v, want ErrMaxIterations", err)
	}
	if info.Converged {
		t.Error("must not report converged")
	}
}

func TestNewConsensusValidation(t *testing.T) {
	if _, err := NewConsensus(0, 2, 1, nil); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := NewConsensus(2, 0, 1, nil); err == nil {
		t.Error("workers 0 should error")
	}
	if _, err := NewConsensus(2, 2, 0, nil); err == nil {
		t.Error("rho 0 should error")
	}
}

func TestStepValidation(t *testing.T) {
	cons, err := NewConsensus(2, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cons.Step([]mat.Vector{{1, 2}}); err == nil {
		t.Error("wrong worker count should error")
	}
	if _, err := cons.Step([]mat.Vector{{1, 2}, {1}}); err == nil {
		t.Error("wrong dim should error")
	}
}

func TestResidualsConverged(t *testing.T) {
	r := Residuals{Dual: 0.001, Primal: 0.001}
	if !r.Converged(4, 0.01) {
		t.Error("small residuals should converge (thresholds √8·0.01, √4·0.01)")
	}
	if (Residuals{Dual: 1}).Converged(4, 0.01) {
		t.Error("large dual residual should not converge")
	}
	if (Residuals{Primal: 1}).Converged(4, 0.01) {
		t.Error("large primal residual should not converge")
	}
}

// Property: consensus ADMM over quadratic workers converges to the target
// mean (g = 0) for random targets, worker counts, and rho.
func TestPropertyQuadraticConsensus(t *testing.T) {
	f := func(seed int64, wRaw, dRaw uint8, rhoRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		workers := int(wRaw%5) + 2
		dim := int(dRaw%4) + 1
		rho := math.Abs(math.Mod(rhoRaw, 3)) + 0.3
		if math.IsNaN(rho) {
			return true
		}
		targets := make([]mat.Vector, workers)
		want := mat.NewVector(dim)
		for t := range targets {
			targets[t] = make(mat.Vector, dim)
			for j := range targets[t] {
				targets[t][j] = r.NormFloat64() * 3
			}
			want.Add(targets[t])
		}
		want.Scale(1 / float64(workers))
		cons, _, err := Run(dim, workers, quadWorker(targets, rho), AverageZ,
			Options{Rho: rho, EpsAbs: 1e-7, MaxIter: 5000})
		if err != nil {
			return false
		}
		return cons.Z.Equal(want, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the SquaredNormZ prox matches its closed form
// argmin ||z||² + (Tρ/2)||z − s/T||² = ρ·s/(2 + Tρ).
func TestPropertySquaredNormProxClosedForm(t *testing.T) {
	f := func(seed int64, wRaw uint8, rhoRaw float64) bool {
		r := rand.New(rand.NewSource(seed))
		workers := int(wRaw%6) + 1
		rho := math.Abs(math.Mod(rhoRaw, 5)) + 0.1
		if math.IsNaN(rho) {
			return true
		}
		sum := mat.Vector{r.NormFloat64(), r.NormFloat64()}
		z := SquaredNormZ(sum, workers, rho)
		// Numerically minimize over a grid around z to confirm optimality.
		obj := func(c mat.Vector) float64 {
			avg := sum.Clone()
			avg.Scale(1 / float64(workers))
			d := mat.SubVec(c, avg)
			return c.SquaredNorm() + float64(workers)*rho/2*d.SquaredNorm()
		}
		base := obj(z)
		for trial := 0; trial < 20; trial++ {
			cand := z.Clone()
			cand[r.Intn(2)] += r.NormFloat64() * 0.1
			if obj(cand) < base-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestObserveRoundOneClockRead: a round has one duration. The histogram
// observation and the admm-round record must carry the same reading, not two
// reads of a clock that moved in between.
func TestObserveRoundOneClockRead(t *testing.T) {
	r := obs.NewRegistry()
	fr := obs.NewFlightRecorder(nil, 0)
	r.SetFlightRecorder(fr)
	ObserveRound(r, 0, time.Now().Add(-time.Millisecond), Residuals{Primal: 1, Dual: 2})
	var rec struct {
		DurNS int64 `json:"dur_ns"`
	}
	if err := json.Unmarshal([]byte(fr.Tail()[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Histogram(obs.MetricADMMRoundSeconds, "").Sum(), time.Duration(rec.DurNS).Seconds(); got != want {
		t.Errorf("admm_round_seconds observed %v s, the admm-round record says %v s", got, want)
	}
}
