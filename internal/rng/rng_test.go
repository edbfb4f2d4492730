package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := parent.Split(1)
	// Same label twice from an unadvanced parent yields the same child.
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatal("Split with same label should be deterministic")
		}
	}
	// Different labels give different sequences.
	c1 = parent.Split(1)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("children of labels 1 and 2 collided %d times", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	_ = a.Split(123)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split consumed parent randomness")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared test over 10 buckets; bound is loose but catches
	// gross modulo bias.
	s := New(17)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	expected := float64(draws) / n
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 dof, p=0.001 critical value is 27.88.
	if chi2 > 27.88 {
		t.Fatalf("chi-squared %.2f exceeds 27.88; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(23)
	const draws = 200000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		v := s.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f far from 1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 9, 50} {
		s := New(uint64(31 + mean))
		const draws = 50000
		var sum float64
		for i := 0; i < draws; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / draws
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("Poisson(%g) sample mean %.3f", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	s := New(1)
	if v := s.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
	if v := s.Poisson(-3); v != 0 {
		t.Fatalf("Poisson(-3) = %d, want 0", v)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	// Property: shuffling preserves the multiset.
	f := func(xs []int, seed uint64) bool {
		s := New(seed)
		orig := make(map[int]int)
		for _, x := range xs {
			orig[x]++
		}
		cp := append([]int(nil), xs...)
		s.ShuffleInts(cp)
		got := make(map[int]int)
		for _, x := range cp {
			got[x]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, v := range orig {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	s := New(53)
	for _, tc := range []struct{ n, k int }{
		{10, 0}, {10, 1}, {10, 5}, {10, 10}, {1000, 3}, {1000, 900},
	} {
		got := s.SampleWithoutReplacement(tc.n, tc.k)
		if len(got) != tc.k {
			t.Fatalf("n=%d k=%d: got %d items", tc.n, tc.k, len(got))
		}
		seen := make(map[int]bool)
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("n=%d k=%d: value %d out of range", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("n=%d k=%d: duplicate %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	New(1).SampleWithoutReplacement(3, 4)
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each of the 10 items should appear in a size-5 sample about half
	// the time.
	s := New(61)
	const trials = 20000
	counts := make([]int, 10)
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleWithoutReplacement(10, 5) {
			counts[v]++
		}
	}
	for i, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.5) > 0.02 {
			t.Fatalf("item %d selected with frequency %.3f, want ~0.5", i, frac)
		}
	}
}
