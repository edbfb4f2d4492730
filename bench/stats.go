package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it; 0 when there are none. sorted must be
// ascending.
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

// tailLadder lists the percentiles tail_ms may report, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile is the highest percentile of tailLadder, at most the
// workload's nominal one, that n samples support: at least ten samples
// must lie beyond it (p99 needs 1000 samples, p90 needs 100). A
// percentile with fewer beyond it is set by a handful of outliers and
// does not repeat from run to run. Each workload's nominal percentile
// is chosen so that a run of run_seconds supports it with room to
// spare; the helper is what warns when a shorter run does not.
func tailPercentile(n int, nominal float64) float64 {
	for _, p := range tailLadder {
		if p <= nominal && float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), because that is what the driver's acceptance
// check uses. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance as a share of the median:
// the run-to-run spread the driver compares with a metric's bound.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
