package optimize

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"plos/internal/mat"
	"plos/internal/qp"
	"plos/internal/race"
)

func TestWorkingSetDedup(t *testing.T) {
	var ws WorkingSet
	c1 := Constraint{A: mat.Vector{1, 0}, C: 1, Key: "\x01"}
	c2 := Constraint{A: mat.Vector{0, 1}, C: 2, Key: "\x02"}
	if !ws.Add(c1) || !ws.Add(c2) {
		t.Fatal("fresh constraints should insert")
	}
	if ws.Add(Constraint{A: mat.Vector{9, 9}, C: 9, Key: "\x01"}) {
		t.Error("duplicate key should not insert")
	}
	if ws.Len() != 2 {
		t.Errorf("Len = %d", ws.Len())
	}
	got := ws.Constraints()
	if got[0].C != 1 || got[1].C != 2 {
		t.Error("insertion order not preserved")
	}
	ws.Reset()
	if ws.Len() != 0 {
		t.Error("Reset should empty the set")
	}
	if !ws.Add(c1) {
		t.Error("Add after Reset should insert")
	}
}

func TestWorkingSetGeneration(t *testing.T) {
	// Generation increments on every Reset and only on Reset — it is the
	// invalidation key for solver-side caches (qp.GramCache holders).
	var ws WorkingSet
	g0 := ws.Generation()
	ws.Add(Constraint{A: mat.Vector{1}, C: 1, Key: "\x01"})
	ws.Add(Constraint{A: mat.Vector{2}, C: 2, Key: "\x02"})
	if ws.Generation() != g0 {
		t.Error("Add must not change the generation")
	}
	ws.Reset()
	if ws.Generation() != g0+1 {
		t.Errorf("Generation = %d after one Reset, want %d", ws.Generation(), g0+1)
	}
	ws.Reset()
	if ws.Generation() != g0+2 {
		t.Errorf("Generation = %d after two Resets, want %d", ws.Generation(), g0+2)
	}
}

func TestMostViolatedSelectsLowMargin(t *testing.T) {
	// Two samples: first has margin 5 (excluded), second margin -1 (included).
	x := mat.FromRows([][]float64{{5, 0}, {-1, 0}})
	eff := []float64{1, 1}
	weight := []float64{0.5, 0.5}
	w := mat.Vector{1, 0}
	c, err := MostViolated(x, eff, weight, w)
	if err != nil {
		t.Fatal(err)
	}
	// Only sample 2 selected: A = 0.5*1*(-1,0), C = 0.5.
	if !c.A.Equal(mat.Vector{-0.5, 0}, 1e-12) {
		t.Errorf("A = %v", c.A)
	}
	if c.C != 0.5 {
		t.Errorf("C = %v", c.C)
	}
}

func TestMostViolatedEmptyWhenAllMarginsMet(t *testing.T) {
	x := mat.FromRows([][]float64{{5, 0}, {7, 0}})
	c, err := MostViolated(x, []float64{1, 1}, []float64{1, 1}, mat.Vector{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.C != 0 || c.A.Norm2() != 0 {
		t.Errorf("expected empty constraint, got %+v", c)
	}
	if Violation(c, mat.Vector{1, 0}, 0) > 0 {
		t.Error("empty constraint should not be violated")
	}
}

func TestMostViolatedErrors(t *testing.T) {
	x := mat.FromRows([][]float64{{1, 2}})
	if _, err := MostViolated(x, []float64{1, 1}, []float64{1}, mat.Vector{0, 0}); err == nil {
		t.Error("label length mismatch should error")
	}
	if _, err := MostViolated(x, []float64{1}, []float64{1}, mat.Vector{0}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestMostViolatedKeyEncodesSubset(t *testing.T) {
	x := mat.FromRows([][]float64{{-1}, {5}, {-1}})
	eff := []float64{1, 1, 1}
	weight := []float64{1, 1, 1}
	c, err := MostViolated(x, eff, weight, mat.Vector{1})
	if err != nil {
		t.Fatal(err)
	}
	// Samples 0 and 2 selected: bits 0b101 = 0x05.
	if c.Key != "\x05" {
		t.Errorf("Key = %x", c.Key)
	}
}

func TestViolationAndSlack(t *testing.T) {
	var ws WorkingSet
	ws.Add(Constraint{A: mat.Vector{1}, C: 2, Key: "a"})
	ws.Add(Constraint{A: mat.Vector{-1}, C: 0.2, Key: "b"})
	w := mat.Vector{1}
	// Constraint a: 2 - 1 = 1; constraint b: 0.2 + 1 = 1.2. Slack = 1.2.
	if got := Slack(&ws, w); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("Slack = %v", got)
	}
	if got := Violation(ws.Constraints()[0], w, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Violation = %v", got)
	}
	var empty WorkingSet
	if Slack(&empty, w) != 0 {
		t.Error("empty working set should give zero slack")
	}
}

// Property: the most-violated constraint maximizes c·selection over all
// 2^m subsets — verify against brute force for small m (Eq. 13/14 argmax).
func TestPropertyMostViolatedIsArgmax(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := int(mRaw%6) + 1
		r := rand.New(rand.NewSource(seed))
		x := mat.NewMatrix(m, 2)
		eff := make([]float64, m)
		weight := make([]float64, m)
		for i := 0; i < m; i++ {
			x.Set(i, 0, r.NormFloat64())
			x.Set(i, 1, r.NormFloat64())
			eff[i] = float64(r.Intn(2))*2 - 1
			weight[i] = r.Float64()
		}
		w := mat.Vector{r.NormFloat64(), r.NormFloat64()}
		got, err := MostViolated(x, eff, weight, w)
		if err != nil {
			return false
		}
		gotVal := got.C - w.Dot(got.A)
		// Brute force over all subsets.
		best := math.Inf(-1)
		for mask := 0; mask < 1<<m; mask++ {
			var val float64
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 {
					val += weight[i] * (1 - eff[i]*w.Dot(x.Row(i)))
				}
			}
			if val > best {
				best = val
			}
		}
		return math.Abs(gotVal-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCCCPConvergesOnDecreasingSequence(t *testing.T) {
	// Objective halves every round: converges when steps get small.
	val := 8.0
	info, err := CCCP(func(int) (float64, error) {
		val /= 2
		return val, nil
	}, 1e-3, 100, nil, nil)
	if err != nil {
		t.Fatalf("CCCP: %v", err)
	}
	if !info.Converged {
		t.Error("should converge")
	}
	if len(info.History) != info.Iterations {
		t.Errorf("history length %d != iterations %d", len(info.History), info.Iterations)
	}
}

func TestCCCPDetectsIncrease(t *testing.T) {
	vals := []float64{5, 1, 9}
	i := 0
	_, err := CCCP(func(int) (float64, error) {
		v := vals[i]
		i++
		return v, nil
	}, 1e-6, 10, nil, nil)
	if !errors.Is(err, ErrNotDescending) {
		t.Errorf("err = %v, want ErrNotDescending", err)
	}
}

func TestCCCPPropagatesStepError(t *testing.T) {
	boom := errors.New("boom")
	_, err := CCCP(func(int) (float64, error) { return 0, boom }, 1e-6, 10, nil, nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestCCCPMaxIter(t *testing.T) {
	calls := 0
	info, err := CCCP(func(k int) (float64, error) {
		calls++
		return -float64(k), nil // keeps decreasing by 1, never converges
	}, 1e-9, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 7 || info.Iterations != 7 || info.Converged {
		t.Errorf("calls=%d info=%+v", calls, info)
	}
}

// TestCCCPGuardedSkipsDegradedRounds: a degraded round's objective (folded
// from stale partials) may rise or freeze without ending the run — the
// monotonicity and convergence tests skip it and the first clean round after
// it, then resume.
func TestCCCPGuardedSkipsDegradedRounds(t *testing.T) {
	// Rounds 1-2 are degraded: a big rise then a frozen value, either of
	// which would terminate an unguarded run. Round 4 is the first checked
	// round (3 is clean but follows a degraded one) and descends; round 5
	// converges against round 4.
	vals := []float64{5, 9, 9, 4, 3, 3}
	dirty := map[int]bool{1: true, 2: true}
	i := 0
	step := func(int) (float64, error) {
		v := vals[i]
		i++
		return v, nil
	}
	info, err := CCCP(step, 1e-3, 10, nil,
		func(k int) bool { return !dirty[k] })
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if !info.Converged || info.Iterations != 6 {
		t.Errorf("info = %+v, want convergence at round 5", info)
	}

	// The same sequence without the hint dies on the round-1 rise.
	i = 0
	if _, err := CCCP(step, 1e-3, 10, nil, nil); !errors.Is(err, ErrNotDescending) {
		t.Errorf("unguarded err = %v, want ErrNotDescending", err)
	}
}

// TestCCCPGuardedStillChecksCleanRounds: the hint must not disable the
// descent guarantee where it is meaningful — two consecutive clean rounds
// that ascend still fail.
func TestCCCPGuardedStillChecksCleanRounds(t *testing.T) {
	vals := []float64{5, 9, 4, 8}
	i := 0
	_, err := CCCP(func(int) (float64, error) {
		v := vals[i]
		i++
		return v, nil
	}, 1e-3, 10, nil, func(k int) bool { return k != 1 })
	if !errors.Is(err, ErrNotDescending) {
		t.Errorf("err = %v, want ErrNotDescending on the clean 4 -> 8 rise", err)
	}
}

// refMostViolated is MostViolated as it stood before the row-blocked margins:
// one Dot per row. Kept here as the bit-identity reference.
func refMostViolated(x *mat.Matrix, eff, weight []float64, w mat.Vector) Constraint {
	a := mat.NewVector(x.Cols)
	var c float64
	bits := make([]byte, (x.Rows+7)/8)
	for i := 0; i < x.Rows; i++ {
		if weight[i] == 0 {
			continue
		}
		xi := x.Row(i)
		if eff[i]*w.Dot(xi) < 1 {
			a.AddScaled(weight[i]*eff[i], xi)
			c += weight[i]
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return Constraint{A: a, C: c, Key: string(bits)}
}

func randUser(r *rand.Rand, rows, cols int) (*mat.Matrix, []float64, []float64, mat.Vector) {
	x := mat.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	eff, weight := make([]float64, rows), make([]float64, rows)
	for i := range eff {
		eff[i] = float64(1 - 2*r.Intn(2))
		weight[i] = float64(r.Intn(3)) * 0.01 // a third of the rows weigh nothing
	}
	w := make(mat.Vector, cols)
	for j := range w {
		w[j] = r.NormFloat64() * 0.05
	}
	return x, eff, weight, w
}

func TestMostViolatedBitIdenticalToPerRowForm(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	var s CutScratch // reused across shapes, as a worker reuses it across rounds
	for _, rows := range []int{0, 1, 4, 7, 100} {
		for _, cols := range []int{1, 3, 562} {
			x, eff, weight, w := randUser(r, rows, cols)
			want := refMostViolated(x, eff, weight, w)
			got, err := MostViolated(x, eff, weight, w)
			if err != nil {
				t.Fatal(err)
			}
			viaScratch, bits, err := s.MostViolated(x, eff, weight, w)
			if err != nil {
				t.Fatal(err)
			}
			for name, c := range map[string]Constraint{"MostViolated": got,
				"CutScratch.MostViolated": {A: viaScratch.A, C: viaScratch.C, Key: string(bits)}} {
				if c.Key != want.Key || math.Float64bits(c.C) != math.Float64bits(want.C) {
					t.Fatalf("%dx%d %s: (C, Key) = (%v, %x), per-row form (%v, %x)", rows, cols, name, c.C, c.Key, want.C, want.Key)
				}
				for j := range want.A {
					if math.Float64bits(c.A[j]) != math.Float64bits(want.A[j]) {
						t.Fatalf("%dx%d %s: A[%d] = %v, per-row form %v", rows, cols, name, j, c.A[j], want.A[j])
					}
				}
			}
		}
	}
}

func TestSlackBitIdenticalToPerConstraintForm(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	w := make(mat.Vector, 40)
	for j := range w {
		w[j] = r.NormFloat64()
	}
	var ws WorkingSet
	for n := 0; n <= 9; n++ { // every remainder of the set size mod 4, twice
		var want float64
		for _, c := range ws.Constraints() {
			if v := c.C - w.Dot(c.A); v > want {
				want = v
			}
		}
		if got := Slack(&ws, w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d constraints: Slack = %v, per-constraint form %v", n, got, want)
		}
		a := make(mat.Vector, len(w))
		for j := range a {
			a[j] = r.NormFloat64()
		}
		ws.Add(Constraint{A: a, C: r.NormFloat64() * 10, Key: string(rune('a' + n))})
	}
}

func TestAddCutCopiesOnlyWhenInserted(t *testing.T) {
	var ws WorkingSet
	var s CutScratch
	x := mat.FromRows([][]float64{{1, 0}, {0, 1}})
	eff, weight := []float64{1, 1}, []float64{0.5, 0.5}
	c, bits, err := s.MostViolated(x, eff, weight, mat.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !ws.AddCut(c, bits) {
		t.Fatal("fresh cut should insert")
	}
	// The next search rewrites the scratch; the stored constraint must not move.
	if _, _, err := s.MostViolated(x, eff, weight, mat.Vector{5, 0}); err != nil {
		t.Fatal(err)
	}
	stored := ws.Constraints()[0]
	if !stored.A.Equal(mat.Vector{0.5, 0.5}, 0) || stored.Key != "\x03" {
		t.Errorf("stored constraint aliases the scratch: A = %v, Key = %x", stored.A, stored.Key)
	}
	c, bits, _ = s.MostViolated(x, eff, weight, mat.Vector{0, 0})
	if ws.AddCut(c, bits) {
		t.Error("duplicate subset should not insert")
	}
}

func BenchmarkMostViolated(b *testing.B) {
	x, eff, weight, w := randUser(rand.New(rand.NewSource(1)), 100, 562)
	var s CutScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MostViolated(x, eff, weight, w); err != nil {
			b.Fatal(err)
		}
	}
}

// addCutClone is AddCut as it was before it refilled retired rows: every
// inserted candidate gets a fresh clone of its A.
func addCutClone(ws *WorkingSet, c Constraint, bits []byte) bool {
	if _, dup := ws.keys[string(bits)]; dup {
		return false
	}
	return ws.Add(Constraint{A: c.A.Clone(), C: c.C, Key: string(bits)})
}

// TestAddCutRefillMatchesCloneForm drives a refilling set and a cloning one
// through three reset cycles of the same cut sequence: same constraints and
// keys, hence the same Gram and the same restricted duals, bit for bit — and
// from the second cycle on the refilling set stores every A in the row the
// Reset left behind, allocating no vector.
func TestAddCutRefillMatchesCloneForm(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	x, eff, weight, _ := randUser(r, 24, 16)
	var refill, clone WorkingSet
	var s CutScratch
	var rows []*float64 // where cycle 1 put each A
	for cycle := 0; cycle < 3; cycle++ {
		refill.Reset()
		clone.Reset()
		// More cuts each cycle: the first ones refill, the rest find no row.
		for k := 0; k < 6+2*cycle; k++ {
			w := make(mat.Vector, x.Cols)
			for j := range w {
				w[j] = r.NormFloat64() * float64(1+k%3)
			}
			if k%4 == 3 {
				w.Zero() // the all-rows subset: new the first time in a cycle, a duplicate after
			}
			c, bits, err := s.MostViolated(x, eff, weight, w)
			if err != nil {
				t.Fatal(err)
			}
			before := refill.Len()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			added := refill.AddCut(c, bits)
			runtime.ReadMemStats(&m1)
			if added != addCutClone(&clone, c, bits) {
				t.Fatalf("cycle %d cut %d: refill inserted %v, clone form the opposite", cycle, k, added)
			}
			if cycle > 0 && added && before < len(rows) {
				if got := &refill.Constraints()[before].A[0]; got != rows[before] {
					t.Errorf("cycle %d row %d: A was not stored in the retired row", cycle, before)
				}
				// What is left is the interned key.
				if n := m1.Mallocs - m0.Mallocs; !race.Enabled && n > 1 {
					t.Errorf("cycle %d row %d: refilling AddCut allocated %d times", cycle, before, n)
				}
			}
		}
		got, want := refill.Constraints(), clone.Constraints()
		if len(got) != len(want) || refill.Generation() != clone.Generation() {
			t.Fatalf("cycle %d: %d constraints gen %d, clone form %d gen %d",
				cycle, len(got), refill.Generation(), len(want), clone.Generation())
		}
		for k := range want {
			if got[k].Key != want[k].Key || got[k].C != want[k].C || !sameBits(got[k].A, want[k].A) {
				t.Fatalf("cycle %d constraint %d differs from the clone form", cycle, k)
			}
		}
		gG, aG := gramAndDuals(t, got)
		gW, aW := gramAndDuals(t, want)
		if !sameBits(gG, gW) || !sameBits(aG, aW) {
			t.Fatalf("cycle %d: Gram or duals differ from the clone form", cycle)
		}
		if cycle == 0 {
			for _, c := range got {
				rows = append(rows, &c.A[0])
			}
		}
	}
}

// gramAndDuals builds A·Aᵀ over a constraint list and solves the unit-budget
// restricted dual on it, the way a device worker does.
func gramAndDuals(t *testing.T, cons []Constraint) (gram, alpha []float64) {
	t.Helper()
	var cache qp.GramCache
	g := cache.GrowDots(len(cons), 1,
		func(k int) mat.Vector { return cons[k].A },
		func(_, _ int, dot float64) float64 { return dot })
	cvec := make(mat.Vector, len(cons))
	idx := make([]int, len(cons))
	for k, c := range cons {
		cvec[k], idx[k] = c.C, k
	}
	var scratch qp.Scratch
	a, _, err := scratch.Solve(&qp.Problem{G: g, C: cvec,
		Groups: qp.GroupSpec{Groups: [][]int{idx}, Budgets: []float64{1}}},
		qp.Options{MaxIter: 50, LipschitzBound: cache.Bound()})
	if err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), g.Data...), append([]float64(nil), a...)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
