// Package eval is the experiment harness that regenerates every figure of
// the paper's evaluation (§VI, Figures 3–13). It assembles per-user
// datasets with randomly chosen label providers, runs PLOS and the three
// baselines, evaluates accuracy separately on users with and without
// labels (as every paper figure does), and produces Figure series that
// cmd/plos-bench and bench_test.go print.
package eval

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"plos/internal/baselines"
	"plos/internal/core"
	"plos/internal/mat"
	"plos/internal/parallel"
	"plos/internal/rng"
)

// Base is one user's generated data with full ground truth, before any
// labeling decision.
type Base struct {
	X     *mat.Matrix
	Truth []float64
}

// Method names, in the paper's legend order.
const (
	MethodPLOS   = "PLOS"
	MethodAll    = "All"
	MethodGroup  = "Group"
	MethodSingle = "Single"
)

// Methods lists the default method set in presentation order.
var Methods = []string{MethodPLOS, MethodAll, MethodGroup, MethodSingle}

// Assemble turns bases into training data: users listed in providers get
// round(rate·m) labels (at least one per class, stratified so tiny rates
// still produce a two-class labeled set, mirroring the paper's "randomly
// labeled 6% ≈ 4 samples per activity"); everyone else provides none.
// Labeled samples are moved to the front of each user's matrix (the l_t
// prefix convention); the returned truths are reordered identically. A user
// who provides no labels shares its base's matrix. Each provider's order
// comes from its own stream, so the users are assembled over workers
// goroutines (parallel.Workers) into their own slots, the same bits for any
// count.
func Assemble(bases []Base, providers []int, rate float64, g *rng.RNG, workers int) ([]core.UserData, [][]float64, error) {
	isProvider := make([]bool, len(bases))
	for _, p := range providers {
		if p < 0 || p >= len(bases) {
			return nil, nil, fmt.Errorf("eval: Assemble: provider %d out of range [0,%d)", p, len(bases))
		}
		isProvider[p] = true
	}
	for t, b := range bases {
		if b.X == nil || b.X.Rows != len(b.Truth) {
			return nil, nil, fmt.Errorf("eval: Assemble: user %d has inconsistent base", t)
		}
	}
	users := make([]core.UserData, len(bases))
	truths := make([][]float64, len(bases))
	parallel.Blocks(workers, len(bases), func(lo, hi int) {
		orderG := rng.New(0) // re-seeded per provider
		for t := lo; t < hi; t++ {
			b := bases[t]
			if !isProvider[t] {
				// No labels, so no reordering: the user reads the base's
				// rows as they are (trainers never write to X), not a copy.
				truths[t] = append([]float64(nil), b.Truth...)
				users[t] = core.UserData{X: b.X, Y: truths[t][:0]}
				continue
			}
			g.SplitNInto(orderG, "assemble", t)
			order, labeled := stratifiedOrder(b.Truth, rate, orderG)
			x := mat.NewMatrix(b.X.Rows, b.X.Cols)
			truth := make([]float64, b.X.Rows)
			for row, src := range order {
				copy(x.Row(row), b.X.Row(src))
				truth[row] = b.Truth[src]
			}
			users[t] = core.UserData{X: x, Y: truth[:labeled]}
			truths[t] = truth
		}
	})
	return users, truths, nil
}

// stratifiedOrder picks round(rate·n) labeled samples (≥1 per present
// class) and returns a row order placing them first, plus the label count.
func stratifiedOrder(truth []float64, rate float64, g *rng.RNG) ([]int, int) {
	n := len(truth)
	want := int(math.Round(rate * float64(n)))
	if want < 2 {
		want = 2
	}
	if want > n {
		want = n
	}
	var pos, neg []int
	for i, y := range truth {
		if y > 0 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	g.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	g.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	takePos := want / 2
	takeNeg := want - takePos
	if takePos > len(pos) {
		takeNeg += takePos - len(pos)
		takePos = len(pos)
	}
	if takeNeg > len(neg) {
		takePos += takeNeg - len(neg)
		takeNeg = len(neg)
		if takePos > len(pos) {
			takePos = len(pos)
		}
	}
	selected := append(append([]int{}, pos[:takePos]...), neg[:takeNeg]...)
	g.Shuffle(len(selected), func(i, j int) { selected[i], selected[j] = selected[j], selected[i] })
	inSel := make([]bool, n)
	for _, i := range selected {
		inSel[i] = true
	}
	order := make([]int, 0, n)
	order = append(order, selected...)
	for i := 0; i < n; i++ {
		if !inSel[i] {
			order = append(order, i)
		}
	}
	return order, len(selected)
}

// Accuracy compares predictions to truth; when needsMatching is set (an
// unsupervised method with arbitrary polarity) the better of the two label
// assignments is used, following the paper's best-matching evaluation.
func Accuracy(pred, truth []float64, needsMatching bool) float64 {
	if len(pred) == 0 || len(pred) != len(truth) {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(pred))
	if needsMatching && 1-acc > acc {
		return 1 - acc
	}
	return acc
}

// MethodsConfig selects and parameterizes the methods to run.
type MethodsConfig struct {
	Core     core.Config
	Baseline baselines.Params
	// Distributed switches PLOS to TrainDistributed (used by Fig. 11).
	Distributed bool
	Dist        core.DistConfig
	// Skip lists method names to leave out.
	Skip []string
}

func (c MethodsConfig) skipped(name string) bool {
	for _, s := range c.Skip {
		if s == name {
			return true
		}
	}
	return false
}

// GroupAccuracies holds one method's mean accuracy over the two user
// populations of every paper figure.
type GroupAccuracies struct {
	Labeled   float64 // users who provide labels
	Unlabeled float64 // users who provide none
}

// RunMethods trains each selected method on users and returns per-method
// accuracies averaged within the provider and non-provider populations.
func RunMethods(users []core.UserData, truths [][]float64, providers []int,
	cfg MethodsConfig, g *rng.RNG) (map[string]GroupAccuracies, error) {
	if len(users) != len(truths) {
		return nil, errors.New("eval: RunMethods: users/truths length mismatch")
	}
	isProvider := make([]bool, len(users))
	for _, p := range providers {
		isProvider[p] = true
	}
	perUser := make(map[string][]float64, len(Methods))

	if !cfg.skipped(MethodPLOS) {
		var model *core.Model
		var err error
		if cfg.Distributed {
			model, _, err = core.TrainDistributed(users, cfg.Core, cfg.Dist)
		} else {
			model, _, err = core.TrainCentralized(users, cfg.Core)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: PLOS: %w", err)
		}
		accs := make([]float64, len(users))
		for t, u := range users {
			pred := make([]float64, u.X.Rows)
			for i := 0; i < u.X.Rows; i++ {
				pred[i] = model.PredictUser(t, u.X.Row(i))
			}
			accs[t] = Accuracy(pred, truths[t], false)
		}
		perUser[MethodPLOS] = accs
	}

	type baselineFn func([]core.UserData, baselines.Params, *rng.RNG) ([]baselines.Prediction, error)
	for _, b := range []struct {
		name string
		fn   baselineFn
	}{
		{MethodAll, baselines.All},
		{MethodGroup, baselines.Group},
		{MethodSingle, baselines.Single},
	} {
		if cfg.skipped(b.name) {
			continue
		}
		preds, err := b.fn(users, cfg.Baseline, g.Split(b.name))
		if err != nil {
			return nil, fmt.Errorf("eval: %s: %w", b.name, err)
		}
		accs := make([]float64, len(users))
		for t, p := range preds {
			accs[t] = Accuracy(p.Labels, truths[t], p.NeedsMatching)
		}
		perUser[b.name] = accs
	}

	out := make(map[string]GroupAccuracies, len(perUser))
	for name, accs := range perUser {
		var labSum, unlSum float64
		var labN, unlN int
		for t, a := range accs {
			if isProvider[t] {
				labSum += a
				labN++
			} else {
				unlSum += a
				unlN++
			}
		}
		// An empty population renders as NaN (Format prints "-"), not as
		// a fake 0% accuracy.
		ga := GroupAccuracies{Labeled: math.NaN(), Unlabeled: math.NaN()}
		if labN > 0 {
			ga.Labeled = labSum / float64(labN)
		}
		if unlN > 0 {
			ga.Unlabeled = unlSum / float64(unlN)
		}
		out[name] = ga
	}
	return out, nil
}

// Curve is one method's series across a figure's x axis. YStd, when
// non-nil, carries the across-trial standard deviation per point (the paper
// quotes these for its Fig. 9, e.g. "the standard deviation of PLOS
// decreases from 7.37% to 0.75%").
type Curve struct {
	Name string
	Y    []float64
	YStd []float64
}

// Figure is a reproducible paper panel: X positions plus one curve per
// method.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	X      []float64
	Curves []Curve
}

// CSV renders the figure as comma-separated values with a header row
// (x, then one column per curve); NaN cells are left empty.
func (f Figure) CSV() string {
	var sb strings.Builder
	sb.WriteString("x")
	for _, c := range f.Curves {
		sb.WriteByte(',')
		sb.WriteString(c.Name)
	}
	sb.WriteByte('\n')
	for i, x := range f.X {
		fmt.Fprintf(&sb, "%g", x)
		for _, c := range f.Curves {
			sb.WriteByte(',')
			if i < len(c.Y) && !math.IsNaN(c.Y[i]) {
				fmt.Fprintf(&sb, "%g", c.Y[i])
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Format renders the figure as an aligned text table for logs and
// EXPERIMENTS.md.
func (f Figure) Format() string {
	s := fmt.Sprintf("%s: %s\n%12s", f.ID, f.Title, f.XLabel)
	for _, c := range f.Curves {
		s += fmt.Sprintf("%12s", c.Name)
	}
	s += "\n"
	for i, x := range f.X {
		s += fmt.Sprintf("%12.3f", x)
		for _, c := range f.Curves {
			var cell string
			switch {
			case i >= len(c.Y) || math.IsNaN(c.Y[i]):
				cell = "-"
			case i < len(c.YStd) && !math.IsNaN(c.YStd[i]):
				cell = fmt.Sprintf("%.3f±%.2f", c.Y[i], c.YStd[i])
			default:
				cell = fmt.Sprintf("%.4f", c.Y[i])
			}
			// Pad by rune count: "±" is multibyte, so %Ns alone misaligns.
			for pad := 12 - len([]rune(cell)); pad > 0; pad-- {
				s += " "
			}
			s += cell
		}
		s += "\n"
	}
	return s
}
