//go:build linux

package main

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is what the acceptance check uses. It needs two values; with fewer all
// three are the single value (or NaN).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		m := stats.Median(xs)
		return m, m, m
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// fastCost and fastRate are how a run condenses the costs (lower is better)
// or rates (higher is better) of its slices or passes into one reading: the
// quartile on the fast side. On a shared machine interference only ever
// slows a slice down, and it comes in spells of seconds, so the fast
// quartile repeats from run to run where the median follows the spells; a
// cost that recurs in more than a quarter of the slices still shows.
func fastCost(costs []float64) float64 {
	q1, _, _ := quartiles(costs)
	return q1
}

func fastRate(rates []float64) float64 {
	_, _, q3 := quartiles(rates)
	return q3
}

// spread is the distance between the first and third quartile as a share of
// the median: the noise figure every bound is sized against.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := stats.Median(xs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule: the smallest value with at least p percent of the
// sample at or below it.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1])
}

// summary is how every timing is reported: the median, the quartiles around
// it and how many samples they rest on.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, _, q3 := quartiles(xs)
	return summary{Median: stats.Median(xs), Q1: q1, Q3: q3, N: len(xs)}
}
