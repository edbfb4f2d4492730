package rng

import (
	"errors"
	"fmt"
)

// ErrNoWeight is returned when a weighted sampler is constructed from an
// empty or all-zero weight vector.
var ErrNoWeight = errors.New("rng: weight vector is empty or sums to zero")

// Weighted samples indices in proportion to a fixed weight vector in O(1)
// per draw using Vose's alias method. Construction is O(n).
//
// The null models of the food-pairing analysis draw hundreds of thousands
// of ingredients from empirical frequency distributions; the alias method
// keeps those draws constant-time regardless of catalog size.
type Weighted struct {
	prob  []float64
	alias []int
	n     int
}

// NewWeighted builds an alias sampler over weights. Negative weights are
// rejected. Zero weights are permitted (those indices are never drawn, as
// long as at least one weight is positive).
func NewWeighted(weights []float64) (*Weighted, error) {
	n := len(weights)
	if n == 0 {
		return nil, ErrNoWeight
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("rng: negative weight %g at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, ErrNoWeight
	}

	w := &Weighted{
		prob:  make([]float64, n),
		alias: make([]int, n),
		n:     n,
	}
	// Scale weights so the mean is 1.
	scaled := make([]float64, n)
	for i, v := range weights {
		scaled[i] = v * float64(n) / total
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, v := range scaled {
		if v < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		w.prob[l] = scaled[l]
		w.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Remaining entries get probability 1 (numerical residue).
	for _, g := range large {
		w.prob[g] = 1
		w.alias[g] = g
	}
	for _, l := range small {
		w.prob[l] = 1
		w.alias[l] = l
	}
	return w, nil
}

// Len returns the number of categories in the sampler.
func (w *Weighted) Len() int { return w.n }

// Sample draws one index in proportion to the weights.
func (w *Weighted) Sample(src *Source) int {
	i := src.Intn(w.n)
	if src.Float64() < w.prob[i] {
		return i
	}
	return w.alias[i]
}

// SampleDistinct draws k distinct indices weighted by the weight vector,
// by repeated sampling with rejection of duplicates. It panics if
// k exceeds the number of indices with positive weight, which would loop
// forever; callers must bound k appropriately.
func (w *Weighted) SampleDistinct(src *Source, k int) []int {
	if k <= 0 {
		return nil
	}
	positive := 0
	for i := 0; i < w.n; i++ {
		if w.prob[i] > 0 || w.alias[i] != i {
			positive++
		}
	}
	if k > positive {
		panic(fmt.Sprintf("rng: SampleDistinct k=%d exceeds %d positive-weight categories", k, positive))
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := w.Sample(src)
		if _, dup := seen[v]; !dup {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}
