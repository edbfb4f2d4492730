// Package stats provides the descriptive and inferential statistics used
// throughout the culinary analysis: running moments, Z-scores, histograms
// and CDFs for the recipe-size and popularity figures, rank-frequency
// transforms, bootstrap confidence intervals for the robustness
// experiments, and rank correlation for comparing null models.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Accumulator gathers streaming first and second moments using Welford's
// numerically stable online algorithm. The null models accumulate food
// pairing scores over 100,000 generated recipes without storing them.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (n-1 denominator), or 0
// when fewer than two observations have been added.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// PopVariance returns the population variance (n denominator).
func (a *Accumulator) PopVariance() float64 {
	if a.n < 1 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// PopStdDev returns the population standard deviation.
func (a *Accumulator) PopStdDev() float64 { return math.Sqrt(a.PopVariance()) }

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Mean(), nil
}

// StdDev returns the unbiased standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.StdDev(), nil
}

// ZScore computes the paper's significance statistic
//
//	Z = (observed - nullMean) / (nullStd / sqrt(nRandom))
//
// i.e. the deviation of the real cuisine's mean pairing score from the
// randomized cuisine's mean, in units of the standard error of the null
// mean over nRandom generated recipes (§IV.B). A zero or negative null
// standard deviation yields Z = 0 when the means agree, +/-Inf otherwise.
func ZScore(observed, nullMean, nullStd float64, nRandom int) float64 {
	if nRandom <= 0 {
		return math.NaN()
	}
	se := nullStd / math.Sqrt(float64(nRandom))
	diff := observed - nullMean
	if se == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(sign(diff))
	}
	return diff / se
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// Histogram is a discrete integer-valued histogram with unit bins,
// suitable for the recipe-size distribution (Fig 3a).
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add adds n observations of value v.
func (h *Histogram) Add(v, n int) {
	h.counts[v] += n
	h.total += n
}

// Count returns the number of observations equal to v.
func (h *Histogram) Count(v int) int { return h.counts[v] }

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// Support returns the observed values in ascending order.
func (h *Histogram) Support() []int {
	out := make([]int, 0, len(h.counts))
	for v := range h.counts {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// PMF returns P(X = v) for each value in Support order.
func (h *Histogram) PMF() (values []int, probs []float64) {
	values = h.Support()
	probs = make([]float64, len(values))
	for i, v := range values {
		probs[i] = float64(h.counts[v]) / float64(h.total)
	}
	return values, probs
}

// CDF returns P(X <= v) for each value in Support order — the cumulative
// inset curves of Fig 3.
func (h *Histogram) CDF() (values []int, cum []float64) {
	values, probs := h.PMF()
	cum = make([]float64, len(probs))
	running := 0.0
	for i, p := range probs {
		running += p
		cum[i] = running
	}
	return values, cum
}

// Mean returns the histogram mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Mode returns the most frequent value; ties break toward the smaller
// value for determinism. Returns 0, false when empty.
func (h *Histogram) Mode() (int, bool) {
	if h.total == 0 {
		return 0, false
	}
	best, bestC := 0, -1
	for _, v := range h.Support() {
		if c := h.counts[v]; c > bestC {
			best, bestC = v, c
		}
	}
	return best, true
}

// RankFrequency sorts counts in descending order and normalizes by the
// largest count — the transform behind Fig 3b (ingredient popularity
// ranked and normalized by the most popular ingredient). Returns nil for
// empty input.
func RankFrequency(counts []int) []float64 {
	if len(counts) == 0 {
		return nil
	}
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	if sorted[0] == 0 {
		out := make([]float64, len(sorted))
		return out
	}
	out := make([]float64, len(sorted))
	top := float64(sorted[0])
	for i, c := range sorted {
		out[i] = float64(c) / top
	}
	return out
}

// CumulativeShare returns, for descending-sorted counts, the fraction of
// total mass covered by the top k entries for every k — the cumulative
// popularity inset of Fig 3b.
func CumulativeShare(counts []int) []float64 {
	if len(counts) == 0 {
		return nil
	}
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	total := 0
	for _, c := range sorted {
		total += c
	}
	out := make([]float64, len(sorted))
	if total == 0 {
		return out
	}
	running := 0
	for i, c := range sorted {
		running += c
		out[i] = float64(running) / float64(total)
	}
	return out
}

// Gini computes the Gini coefficient of the count vector, a scalar
// summary of popularity concentration used when comparing cuisines'
// rank-frequency curves. Returns 0 for empty or all-zero input.
func Gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := append([]int(nil), counts...)
	sort.Ints(sorted)
	var cum, total float64
	for _, c := range sorted {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	var weighted float64
	for i, c := range sorted {
		cum += float64(c)
		_ = i
		weighted += cum
	}
	// G = (n + 1 - 2 * sum(cumshare) ) / n
	return (float64(n) + 1 - 2*weighted/total) / float64(n)
}
