package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if !almostEqual(a.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if !almostEqual(a.PopStdDev(), 2, 1e-12) {
		t.Fatalf("PopStdDev = %v", a.PopStdDev())
	}
	if !almostEqual(a.Variance(), 32.0/7, 1e-12) {
		t.Fatalf("Variance = %v", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator should be all zero")
	}
	a.Add(42)
	if a.Mean() != 42 || a.Variance() != 0 {
		t.Fatalf("single observation: mean=%v var=%v", a.Mean(), a.Variance())
	}
}

func TestMeanStdDevErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatal("Mean(nil) should return ErrEmpty")
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Fatal("StdDev(nil) should return ErrEmpty")
	}
}

func TestZScore(t *testing.T) {
	// observed 10, null mean 8, std 4, n 10000 -> se 0.04 -> z 50.
	if z := ZScore(10, 8, 4, 10000); !almostEqual(z, 50, 1e-9) {
		t.Fatalf("ZScore = %v", z)
	}
	if z := ZScore(8, 8, 0, 100); z != 0 {
		t.Fatalf("identical with zero std should be 0, got %v", z)
	}
	if z := ZScore(9, 8, 0, 100); !math.IsInf(z, 1) {
		t.Fatalf("positive diff with zero std should be +Inf, got %v", z)
	}
	if z := ZScore(7, 8, 0, 100); !math.IsInf(z, -1) {
		t.Fatalf("negative diff with zero std should be -Inf, got %v", z)
	}
	if z := ZScore(1, 1, 1, 0); !math.IsNaN(z) {
		t.Fatalf("nRandom=0 should be NaN, got %v", z)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{3, 3, 5, 9, 3, 5} {
		h.Add(v, 1)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Count(3) != 3 || h.Count(5) != 2 || h.Count(9) != 1 || h.Count(99) != 0 {
		t.Fatal("counts wrong")
	}
	sup := h.Support()
	if len(sup) != 3 || sup[0] != 3 || sup[1] != 5 || sup[2] != 9 {
		t.Fatalf("Support = %v", sup)
	}
	vals, probs := h.PMF()
	if vals[0] != 3 || !almostEqual(probs[0], 0.5, 1e-12) {
		t.Fatalf("PMF = %v %v", vals, probs)
	}
	_, cum := h.CDF()
	if !almostEqual(cum[len(cum)-1], 1, 1e-12) {
		t.Fatalf("CDF does not reach 1: %v", cum)
	}
	if !almostEqual(h.Mean(), (3*3+5*2+9)/6.0, 1e-12) {
		t.Fatalf("Mean = %v", h.Mean())
	}
	mode, ok := h.Mode()
	if !ok || mode != 3 {
		t.Fatalf("Mode = %v %v", mode, ok)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
	if _, ok := h.Mode(); ok {
		t.Fatal("empty mode should report !ok")
	}
	if h.Support() != nil && len(h.Support()) != 0 {
		t.Fatal("empty support should be empty")
	}
}

func TestRankFrequency(t *testing.T) {
	got := RankFrequency([]int{10, 50, 20})
	want := []float64{1, 0.4, 0.2}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("RankFrequency = %v", got)
		}
	}
	if RankFrequency(nil) != nil {
		t.Fatal("nil input should return nil")
	}
	zeros := RankFrequency([]int{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Fatalf("all-zero input: %v", zeros)
	}
}

func TestCumulativeShare(t *testing.T) {
	got := CumulativeShare([]int{1, 3, 1})
	// sorted desc: 3,1,1; total 5 -> 0.6, 0.8, 1.0
	want := []float64{0.6, 0.8, 1.0}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("CumulativeShare = %v", got)
		}
	}
	if CumulativeShare(nil) != nil {
		t.Fatal("nil input should return nil")
	}
	z := CumulativeShare([]int{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero total: %v", z)
	}
}

func TestGini(t *testing.T) {
	// Perfect equality -> 0.
	if g := Gini([]int{5, 5, 5, 5}); !almostEqual(g, 0, 1e-12) {
		t.Fatalf("equal Gini = %v", g)
	}
	// Total concentration in one of n entries -> (n-1)/n.
	if g := Gini([]int{0, 0, 0, 10}); !almostEqual(g, 0.75, 1e-12) {
		t.Fatalf("concentrated Gini = %v", g)
	}
	if g := Gini(nil); g != 0 {
		t.Fatalf("empty Gini = %v", g)
	}
	if g := Gini([]int{0, 0}); g != 0 {
		t.Fatalf("all-zero Gini = %v", g)
	}
}

func TestPropertyAccumulatorMatchesBatch(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		var acc Accumulator
		var sum float64
		for _, x := range xs {
			acc.Add(x)
			sum += x
		}
		batchMean := sum / float64(len(xs))
		return almostEqual(acc.Mean(), batchMean, 1e-6*(1+math.Abs(batchMean)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGiniRange(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, r := range raw {
			counts[i] = int(r)
		}
		g := Gini(counts)
		return g >= -1e-12 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRankFrequencyMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		counts := make([]int, len(raw))
		for i, r := range raw {
			counts[i] = int(r)
		}
		rf := RankFrequency(counts)
		for i := 1; i < len(rf); i++ {
			if rf[i] > rf[i-1] {
				return false
			}
		}
		if len(rf) > 0 && len(counts) > 0 {
			max := 0
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			if max > 0 && rf[0] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
