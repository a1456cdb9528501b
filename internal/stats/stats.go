// Package stats provides the descriptive statistics the analyses print:
// quantiles, complementary-CDF points, distribution summaries for violin/box
// plots, and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation. It returns NaN on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted is Quantile of a non-empty, sorted slice.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median is the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Mean returns the arithmetic mean (NaN on empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation (NaN on empty input).
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// CCDFAt evaluates the CCDF at x: the fraction of samples strictly greater
// than x.
func CCDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary is a distribution summary, as a violin/box plot would render.
type Summary struct {
	N                  int
	Mean, StdDev       float64
	Min, P25, P50, P75 float64
	P90, P99, Max      float64
}

// Summarize computes a Summary (zero value on empty input, with N=0). It
// sorts one copy of xs for all seven quantiles; the mean and deviation sum xs
// in its own order.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    quantileSorted(s, 0),
		P25:    quantileSorted(s, 0.25),
		P50:    quantileSorted(s, 0.5),
		P75:    quantileSorted(s, 0.75),
		P90:    quantileSorted(s, 0.90),
		P99:    quantileSorted(s, 0.99),
		Max:    quantileSorted(s, 1),
	}
}

// String renders the summary in one line.
func (s Summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f p25=%.1f p50=%.1f p75=%.1f p90=%.1f max=%.1f",
		s.N, s.Mean, s.StdDev, s.Min, s.P25, s.P50, s.P75, s.P90, s.Max)
}

// Histogram bins xs into width-w bins starting at 0 and returns counts
// indexed by bin.
func Histogram(xs []float64, w float64, bins int) []int {
	out := make([]int, bins)
	for _, x := range xs {
		b := int(x / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		out[b]++
	}
	return out
}
