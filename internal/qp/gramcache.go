package qp

import (
	"fmt"
	"math"

	"plos/internal/mat"

	"plos/internal/parallel"
)

// GramCache incrementally maintains a symmetric Gram matrix and its
// Gershgorin eigenvalue bound across a sequence of solves in which
// constraints only accumulate — the cutting-plane pattern of every
// restricted dual in this repository. Each round at most a handful of
// constraints arrive, so Grow appends only the new rows/columns (computing
// O(added · total) inner products instead of O(total²)) and extends the
// per-row Gershgorin sums instead of re-scanning the O(total²) cells.
//
// Bit-identity contract: growing to size n over any number of Grow calls
// yields the same matrix bytes and the same Bound() as a single Grow from
// empty. Entries are computed by the same cell callback either way, the
// old block is copied verbatim, and each row's absolute off-diagonal sum
// is accumulated left-to-right exactly as mat.MaxEigenvalueUpperBound
// scans it — appending columns continues the same running sum, so partial
// and one-shot accumulations see the identical operand sequence.
//
// The matrix lives in one backing array that grows geometrically and
// survives Reset: a Grow within capacity restrides the old block in place and
// allocates nothing, and Grow always returns the same *mat.Matrix, re-pointed
// at the current size — a matrix obtained earlier is overwritten by the next
// Grow, so callers that keep one Clone it.
//
// The zero value is an empty cache. Not safe for concurrent use.
type GramCache struct {
	n      int
	g      mat.Matrix // n×n view of buf
	buf    []float64
	radius []float64 // Σ_{j≠i} |g_ij|, accumulated in ascending-j order
	diag   []float64 // g_ii
}

// Reset empties the cache, keeping its storage; the next Grow recomputes
// everything.
func (c *GramCache) Reset() {
	c.n = 0
	c.g = mat.Matrix{}
	c.radius = c.radius[:0]
	c.diag = c.diag[:0]
}

// Len returns the number of constraints currently materialized.
func (c *GramCache) Len() int { return c.n }

// Grow extends the cached Gram to total×total and returns it. cell(i, j)
// must return entry (i, j) and is called once per new unordered pair —
// every (i, j) with c.Len() <= j < total and i <= j; the mirror cell is
// filled from symmetry. New columns fan out over at most workers
// goroutines (each owns disjoint cells), so the matrix is bit-identical
// for any worker count. Shrinking is a caller bug and panics; callers
// detect shrunken working sets and Reset first.
func (c *GramCache) Grow(total, workers int, cell func(i, j int) float64) *mat.Matrix {
	return c.grow(total, workers, columnFill{cell: cell})
}

// GrowDots is Grow for a Gram of explicit vectors: entry (i, j) is
// scale(i, j, row(i)·row(j)). Up to four new columns at a time go through
// mat.DotRows4, each cell bitwise row(i).Dot(row(j)), so the matrix equals the
// one Grow builds from the per-cell form.
func (c *GramCache) GrowDots(total, workers int, row func(i int) mat.Vector, scale func(i, j int, dot float64) float64) *mat.Matrix {
	return c.grow(total, workers, columnFill{row: row, col: row, scale: scale})
}

// GrowCross is GrowDots for a Gram whose column vectors differ from its row
// vectors: entry (i, j), i ≤ j, is scale(i, j, row(i)·col(j)), bitwise
// Grow's with the cell row(i).Dot(col(j)), and mirrored. It is for a
// symmetric matrix written as a product of two factors, such as A_i·A_j =
// g_i·(K·g_j) in a worker's row space.
func (c *GramCache) GrowCross(total, workers int, row, col func(i int) mat.Vector, scale func(i, j int, dot float64) float64) *mat.Matrix {
	return c.grow(total, workers, columnFill{row: row, col: col, scale: scale})
}

// columnFill computes new columns of the Gram: per cell when cell is set,
// else by DotRows4 of col against row, then scale. It is a value rather than
// a closure so that a sequential grow allocates nothing.
type columnFill struct {
	cell     func(i, j int) float64
	row, col func(i int) mat.Vector
	scale    func(i, j int, dot float64) float64
}

// fill sets half[a][i] to entry (i, j0+a) for every i <= j0+a; half[a] is
// row j0+a's left part, cells (j0+a, 0..j0+a), and the empty ones past the
// last new column are skipped.
func (f columnFill) fill(j0 int, half *[4]mat.Vector) {
	if f.cell != nil {
		for a, h := range half {
			for i := range h {
				h[i] = f.cell(i, j0+a)
			}
		}
		return
	}
	var cols [4]mat.Vector
	for a, h := range half {
		if len(h) > 0 {
			cols[a] = f.col(j0 + a)
		}
	}
	mat.DotRows4(*half, cols, f.row)
	for a, h := range half {
		for i, dot := range h {
			h[i] = f.scale(i, j0+a, dot)
		}
	}
}

// grow implements Grow, GrowDots and GrowCross.
func (c *GramCache) grow(total, workers int, f columnFill) *mat.Matrix {
	n0 := c.n
	if total < n0 {
		panic(fmt.Sprintf("qp: GramCache.Grow: shrinking from %d to %d", n0, total))
	}
	if total == n0 {
		return &c.g
	}
	// Restride the old block to the wider row length; values are copied
	// verbatim, so no float changes. In place the rows move towards higher
	// addresses, last row first, so no source is overwritten before it moves.
	old := c.buf
	if cap(c.buf) < total*total {
		room := total + total/2
		c.buf = make([]float64, total*total, room*room)
	} else {
		c.buf = c.buf[:total*total]
	}
	for i := n0 - 1; i >= 0; i-- {
		copy(c.buf[i*total:i*total+n0], old[i*n0:(i+1)*n0])
	}
	// New cells: a tile of up to four new columns j >= n0 is owned by one
	// goroutine, which writes (j, i) for i <= j plus the mirrored (i, j) —
	// disjoint across owners. When the pool would run one goroutine — one
	// worker, or one tile — the tiles are filled inline: parallel.Do's
	// closures would be the grow's only allocations.
	if tiles := (total - n0 + 3) / 4; parallel.Workers(workers) == 1 || tiles == 1 {
		for j := n0; j < total; j += 4 {
			c.columns(f, j, total)
		}
	} else {
		parallel.Do(workers, tiles, func(k int) { c.columns(f, n0+4*k, total) })
	}
	// Gershgorin bookkeeping. Old rows continue their left-to-right
	// absolute sum over the appended columns; new rows scan in full —
	// both orders match mat.MaxEigenvalueUpperBound exactly.
	data := c.buf
	for i := 0; i < n0; i++ {
		row := data[i*total : (i+1)*total]
		r := c.radius[i]
		for j := n0; j < total; j++ {
			r += math.Abs(row[j])
		}
		c.radius[i] = r
	}
	for i := n0; i < total; i++ {
		row := data[i*total : (i+1)*total]
		var r float64
		for j := 0; j < total; j++ {
			if j != i {
				r += math.Abs(row[j])
			}
		}
		c.radius = append(c.radius, r)
		c.diag = append(c.diag, row[i])
	}
	c.g = mat.Matrix{Rows: total, Cols: total, Data: data}
	c.n = total
	return &c.g
}

// columns fills new columns j0…j0+3 (those below total) of the total-wide
// buffer and their mirror rows.
func (c *GramCache) columns(f columnFill, j0, total int) {
	var half [4]mat.Vector
	for j := j0; j < min(j0+4, total); j++ {
		half[j-j0] = c.buf[j*total : j*total+j+1]
	}
	f.fill(j0, &half)
	for a, h := range half {
		for i, v := range h {
			c.buf[i*total+j0+a] = v
		}
	}
}

// Matrix returns the cached Gram (nil when empty). The cache retains
// ownership; callers must not mutate it.
func (c *GramCache) Matrix() *mat.Matrix {
	if c.n == 0 {
		return nil
	}
	return &c.g
}

// Bound returns the Gershgorin upper bound on the largest eigenvalue of
// the cached matrix in O(n), bit-identical to calling
// mat.MaxEigenvalueUpperBound on it (which re-scans all n² cells).
func (c *GramCache) Bound() float64 {
	if c.n == 0 {
		return 0
	}
	bound := math.Inf(-1)
	for i := 0; i < c.n; i++ {
		if v := c.diag[i] + c.radius[i]; v > bound {
			bound = v
		}
	}
	return bound
}
