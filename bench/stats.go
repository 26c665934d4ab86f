package main

import (
	"math"
	"sort"
)

// summary is the order-statistics digest every metric is reported as.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	P10    float64 `json:"p10"`
	P90    float64 `json:"p90"`
	N      int     `json:"n"`
}

// summarize digests samples; quartiles follow Python's
// statistics.quantiles(values, n=4) (exclusive method), the rule the
// acceptance spread is defined by, so a spread computed from a result file
// equals the one the driver computes.
func summarize(samples []float64) summary {
	s := sorted(samples)
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		P10: quantile(s, 0.1), P90: quantile(s, 0.9), N: len(s)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// reported is the one value of the digest that goes on the result line: the
// median, or for a Quiet metric the decile on its good side.
func (s summary) reported(d metricDef) float64 {
	switch {
	case !d.Quiet:
		return s.Median
	case d.Better == "higher":
		return s.P90
	}
	return s.P10
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the p-quantile of an ascending slice at position
// p·(n+1), clamped to the extremes.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return quantile(sorted(samples), 0.5) }

// tailLadder lists the percentiles a timing may be reported at, in tenths of
// a percent so the support test is exact integer arithmetic.
var tailLadder = []int{500, 900, 990, 999}

// tailPercentile returns the highest ladder percentile that still has at
// least ten samples beyond it (n·(1−p/100) ≥ 10), or 0 when even the median
// lacks that support. A tail read from fewer samples is one outlier's value,
// not a property of the distribution.
func tailPercentile(n int) float64 {
	best := 0
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// percentile reads the p-th percentile (0..100) of unsorted samples.
func percentile(samples []float64, p float64) float64 {
	return quantile(sorted(samples), p/100)
}
