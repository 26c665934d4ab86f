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
// scale(i, j, row(i)·row(j)). The inner products of a new column go through
// mat.DotRows (four rows per pass), each bitwise row(i).Dot(row(j)), so the
// matrix equals the one Grow builds from the per-cell form.
func (c *GramCache) GrowDots(total, workers int, row func(i int) mat.Vector, scale func(i, j int, dot float64) float64) *mat.Matrix {
	return c.grow(total, workers, columnFill{row: row, scale: scale})
}

// columnFill computes a new column of the Gram: per cell when cell is set,
// else by DotRows over row and then scale. It is a value rather than a
// closure so that a sequential grow allocates nothing.
type columnFill struct {
	cell  func(i, j int) float64
	row   func(i int) mat.Vector
	scale func(i, j int, dot float64) float64
}

// fill sets half[i] to entry (i, j) for every i <= j; half is row j's left
// part, cells (j, 0..j).
func (f columnFill) fill(j int, half []float64) {
	if f.cell != nil {
		for i := range half {
			half[i] = f.cell(i, j)
		}
		return
	}
	mat.DotRows(half, f.row(j), f.row)
	for i, dot := range half {
		half[i] = f.scale(i, j, dot)
	}
}

// grow implements Grow and GrowDots.
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
	// New cells: column j >= n0 is owned by one goroutine, which writes
	// (j, i) for i <= j plus the mirrored (i, j) — disjoint across owners.
	// When the pool would run one goroutine — one worker, or one new column
	// — the columns are filled inline: parallel.Do's closures would be the
	// grow's only allocations.
	if parallel.Workers(workers) == 1 || total-n0 == 1 {
		for j := n0; j < total; j++ {
			c.column(f, j, total)
		}
	} else {
		parallel.Do(workers, total-n0, func(k int) { c.column(f, n0+k, total) })
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

// column fills new column j of the total-wide buffer and its mirror row.
func (c *GramCache) column(f columnFill, j, total int) {
	half := c.buf[j*total : j*total+j+1]
	f.fill(j, half)
	for i, v := range half {
		c.buf[i*total+j] = v
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
