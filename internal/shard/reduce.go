package shard

import "plos/internal/mat"

// The helpers below are the cross-user reductions of the training protocol,
// written once: a partition computes its partial with SumXUTo and ApplyZ,
// and partials are folded in partition order. A shard runs them over its
// partition, a single coordinator over each of its ReduceGroups, and the
// in-process admm.Consensus.Step over the one partition that holds every
// worker, so the planes carry the same bits because they run the same code.
// The operation order is part of the contract (floating-point addition is
// not associative): per worker x then u into the sum; per worker the
// squared distance to z accumulated from zero, then added to the partial.
// FoldInit's order is the pooled federated average's (federatedInit in
// reduce_test.go), which a test holds it to.

// SumXU is one partition's consensus partial Σ(x_i + u_i) in a fresh vector;
// xs and us are aligned.
func SumXU(xs, us []mat.Vector, dim int) mat.Vector {
	sum := mat.NewVector(dim)
	SumXUTo(sum, xs, us)
	return sum
}

// SumXUTo is SumXU into the caller's vector, which it overwrites: the round
// engine keeps one per reduce group and refills it every iteration.
func SumXUTo(sum mat.Vector, xs, us []mat.Vector) {
	sum.Zero()
	for i, x := range xs {
		sum.Add(x)
		sum.Add(us[i])
	}
}

// ApplyZ folds a freshly reduced consensus z into one partition's scaled
// duals (u_i += x_i − z, in place) and returns the partition's
// primal-residual partial Σ‖x_i − z‖². Each difference is formed once and
// used twice, so no x_i − z vector exists; a worker's squared distance
// accumulates from zero in index order before it joins the partial.
func ApplyZ(xs, us []mat.Vector, z mat.Vector) float64 {
	var primalSq float64
	for i, x := range xs {
		u := us[i]
		if len(x) != len(z) || len(u) != len(z) {
			panic("shard: ApplyZ: dimension mismatch")
		}
		var sq float64
		for j, zj := range z {
			d := x[j] - zj
			sq += float64(d * d)
			u[j] += d
		}
		primalSq += sq
	}
	return primalSq
}

// Fold reduces per-partition vector partials in partition order. The
// first partial is cloned rather than added to a zero vector so a single
// partition folds to exactly its own bits (0 + (−0) would flip signed
// zeros). Returns nil for no partials.
func Fold(partials []mat.Vector) mat.Vector {
	if len(partials) == 0 {
		return nil
	}
	total := partials[0].Clone()
	for _, p := range partials[1:] {
		total.Add(p)
	}
	return total
}

// FoldScalars reduces per-partition scalar partials in partition order.
func FoldScalars(partials []float64) float64 {
	if len(partials) == 0 {
		return 0
	}
	total := partials[0]
	for _, p := range partials[1:] {
		total += p
	}
	return total
}

// FoldObjective folds per-partition Eq. (23) objective partials onto the
// global ‖w0‖² term in partition order — the objective shape shared by the
// aggregator and a grouped single coordinator.
func FoldObjective(w0Sq float64, partials []float64) float64 {
	obj := w0Sq
	for _, p := range partials {
		obj += p
	}
	return obj
}

// InitPartial is one partition's contribution to the federated w0
// initialization: the label-weighted sum of its local hyperplanes, the
// plain sum (used only when no user in the whole population has labels),
// and the partition's total label weight.
type InitPartial struct {
	Weighted mat.Vector
	Plain    mat.Vector
	Weight   float64
}

// NewInitPartial accumulates one partition's init contribution in slot
// order, skipping zero-weight users in the weighted sum as the pooled
// average does.
func NewInitPartial(ws []mat.Vector, weights []float64, dim int) InitPartial {
	p := InitPartial{Weighted: mat.NewVector(dim), Plain: mat.NewVector(dim)}
	for i, w := range ws {
		if weights[i] > 0 {
			p.Weighted.AddScaled(weights[i], w)
			p.Weight += weights[i]
		}
		p.Plain.Add(w)
	}
	return p
}

// FoldInit folds partition init contributions into the starting w0 for a
// population of total users, reproducing the pooled average's decision:
// label-weighted average when any user has labels, plain average
// otherwise. The result aliases no partial.
func FoldInit(partials []InitPartial, total int) mat.Vector {
	if len(partials) == 0 || total == 0 {
		return nil
	}
	weighted := make([]mat.Vector, len(partials))
	plain := make([]mat.Vector, len(partials))
	wts := make([]float64, len(partials))
	for i, p := range partials {
		weighted[i], plain[i], wts[i] = p.Weighted, p.Plain, p.Weight
	}
	if wt := FoldScalars(wts); wt > 0 {
		sum := Fold(weighted)
		sum.Scale(1 / wt)
		return sum
	}
	sum := Fold(plain)
	sum.Scale(1 / float64(total))
	return sum
}
