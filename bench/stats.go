package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p % of the samples at or
// below it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentiles are the percentiles the harness may report as a tail.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// supportedPercentile is the highest of tailPercentiles that still has at
// least ten samples beyond it (choosing-metrics §1): with fewer, the value is
// one slow request, not a percentile.
func supportedPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// quartiles returns the first quartile, median and third quartile by the
// method of Python's statistics.quantiles(xs, n=4) (exclusive), which is what
// the driver's spread check uses. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
