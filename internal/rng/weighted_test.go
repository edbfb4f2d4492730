package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewWeightedErrors(t *testing.T) {
	if _, err := NewWeighted(nil); err == nil {
		t.Fatal("empty weights should error")
	}
	if _, err := NewWeighted([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights should error")
	}
	if _, err := NewWeighted([]float64{1, -1}); err == nil {
		t.Fatal("negative weight should error")
	}
}

func TestWeightedSingleCategory(t *testing.T) {
	w, err := NewWeighted([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	s := New(1)
	for i := 0; i < 100; i++ {
		if v := w.Sample(s); v != 0 {
			t.Fatalf("single-category sampler returned %d", v)
		}
	}
}

func TestWeightedDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	w, err := NewWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	s := New(7)
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[w.Sample(s)]++
	}
	total := 1.0 + 2 + 3 + 4
	for i, wt := range weights {
		want := wt / total
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("index %d frequency %.4f want %.4f", i, got, want)
		}
	}
}

func TestWeightedZeroWeightNeverDrawn(t *testing.T) {
	w, err := NewWeighted([]float64{0, 1, 0, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	s := New(13)
	for i := 0; i < 50000; i++ {
		v := w.Sample(s)
		if v == 0 || v == 2 || v == 4 {
			t.Fatalf("zero-weight index %d was drawn", v)
		}
	}
}

func TestWeightedSkewed(t *testing.T) {
	// Heavily skewed distribution, like ingredient popularity: the top
	// ingredient dominates.
	weights := make([]float64, 100)
	for i := range weights {
		weights[i] = 1.0 / float64(i+1) / float64(i+1)
	}
	w, err := NewWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	s := New(17)
	const draws = 100000
	count0 := 0
	for i := 0; i < draws; i++ {
		if w.Sample(s) == 0 {
			count0++
		}
	}
	// Index 0 carries weight 1 of total ~pi^2/6 = 1.6449: expect ~60.8%.
	got := float64(count0) / draws
	if math.Abs(got-0.608) > 0.01 {
		t.Fatalf("head frequency %.4f want ~0.608", got)
	}
}

func TestWeightedPropertyDistributionPreserved(t *testing.T) {
	// Property: for random small weight vectors, empirical frequencies
	// converge to the normalized weights.
	f := func(raw []uint8, seed uint64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true // skip, quick will try others
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			weights[i] = float64(r % 16)
			total += weights[i]
		}
		if total == 0 {
			return true
		}
		w, err := NewWeighted(weights)
		if err != nil {
			return false
		}
		s := New(seed)
		const draws = 30000
		counts := make([]int, len(weights))
		for i := 0; i < draws; i++ {
			counts[w.Sample(s)]++
		}
		for i := range weights {
			want := weights[i] / total
			got := float64(counts[i]) / draws
			if math.Abs(got-want) > 0.02 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinct(t *testing.T) {
	w, err := NewWeighted([]float64{5, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(19)
	for trial := 0; trial < 1000; trial++ {
		got := w.SampleDistinct(s, 3)
		if len(got) != 3 {
			t.Fatalf("want 3 distinct, got %d", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if seen[v] {
				t.Fatalf("duplicate %d in %v", v, got)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctZero(t *testing.T) {
	w, _ := NewWeighted([]float64{1, 1})
	if got := w.SampleDistinct(New(1), 0); got != nil {
		t.Fatalf("k=0 should return nil, got %v", got)
	}
}
