// Package cluster implements the clustering substrates the PLOS evaluation
// depends on: Lloyd's k-means with k-means++ seeding (the "Single" baseline
// for users without labels) and spectral clustering over a user-similarity
// graph (the "Group" baseline). Two-class label matching ("we conduct label
// matching on the clustering results", paper §VI-A) is eval.Accuracy's.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"plos/internal/mat"
	"plos/internal/rng"
)

// Errors returned by the clustering routines.
var (
	ErrTooFewPoints = errors.New("cluster: fewer points than clusters")
	ErrBadK         = errors.New("cluster: k must be positive")
)

// KMeansResult holds the outcome of a k-means run.
type KMeansResult struct {
	Centers    []mat.Vector
	Assignment []int // Assignment[i] is the cluster of row i
	Inertia    float64
	Iterations int
	Converged  bool
}

// KMeansParams configures a run. Zero value: 100 iterations, 4 restarts.
type KMeansParams struct {
	MaxIter  int
	Restarts int
}

func (p KMeansParams) withDefaults() KMeansParams {
	if p.MaxIter <= 0 {
		p.MaxIter = 100
	}
	if p.Restarts <= 0 {
		p.Restarts = 4
	}
	return p
}

// KMeans clusters the rows of x into k clusters using Lloyd's algorithm
// with k-means++ seeding, keeping the best of Restarts runs by inertia.
func KMeans(x *mat.Matrix, k int, g *rng.RNG, p KMeansParams) (*KMeansResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadK, k)
	}
	if x.Rows < k {
		return nil, fmt.Errorf("%w: %d points, k=%d", ErrTooFewPoints, x.Rows, k)
	}
	p = p.withDefaults()
	var best *KMeansResult
	for restart := 0; restart < p.Restarts; restart++ {
		res := kmeansOnce(x, k, g.SplitN("kmeans-restart", restart), p.MaxIter)
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func kmeansOnce(x *mat.Matrix, k int, g *rng.RNG, maxIter int) *KMeansResult {
	centers := seedPlusPlus(x, k, g)
	n := x.Rows
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &KMeansResult{}
	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i := 0; i < n; i++ {
			xi := x.Row(i)
			bestC, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := mat.SquaredDist(xi, ctr); d < bestD {
					bestC, bestD = c, d
				}
			}
			if assign[i] != bestC {
				assign[i] = bestC
				changed = true
			}
		}
		if !changed {
			res.Converged = true
			break
		}
		// Recompute centers; an emptied cluster keeps its old center.
		counts := make([]int, k)
		sums := make([]mat.Vector, k)
		for c := range sums {
			sums[c] = mat.NewVector(x.Cols)
		}
		for i := 0; i < n; i++ {
			counts[assign[i]]++
			sums[assign[i]].Add(x.Row(i))
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				sums[c].Scale(1 / float64(counts[c]))
				centers[c] = sums[c]
			}
		}
	}
	var inertia float64
	for i := 0; i < n; i++ {
		inertia += mat.SquaredDist(x.Row(i), centers[assign[i]])
	}
	res.Centers = centers
	res.Assignment = assign
	res.Inertia = inertia
	return res
}

// seedPlusPlus picks k initial centers with k-means++ (distance-squared
// weighted sampling).
func seedPlusPlus(x *mat.Matrix, k int, g *rng.RNG) []mat.Vector {
	n := x.Rows
	centers := make([]mat.Vector, 0, k)
	centers = append(centers, x.Row(g.Intn(n)).Clone())
	d2 := make(mat.Vector, n)
	for len(centers) < k {
		var total float64
		for i := 0; i < n; i++ {
			xi := x.Row(i)
			best := math.Inf(1)
			for _, c := range centers {
				if d := mat.SquaredDist(xi, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total <= 1e-300 {
			// All remaining points coincide with existing centers; pick
			// uniformly to fill the remaining slots.
			centers = append(centers, x.Row(g.Intn(n)).Clone())
			continue
		}
		target := g.Float64() * total
		var cum float64
		pick := n - 1
		for i := 0; i < n; i++ {
			cum += d2[i]
			if cum >= target {
				pick = i
				break
			}
		}
		centers = append(centers, x.Row(pick).Clone())
	}
	return centers
}
