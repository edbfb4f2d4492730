//go:build linux

package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n       int
		nominal float64
		want    float64
	}{
		{110, 99, 90},   // p95 would leave 5.5 beyond
		{110, 90, 90},   // 11 beyond
		{99, 90, 75},    // 9.9 beyond p90
		{16000, 99, 99}, // 160 beyond
		{1000, 99, 99},  // exactly 10
		{999, 99, 95},   // 9.99 beyond p99
		{16000, 90, 90}, // never above the nominal percentile
		{12, 99, 50},    // too few for anything but the median
		{1000000, 99, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.nominal); got != c.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.nominal, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %g", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which the driver uses: quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median(1..10) = %g", m)
	}
	if got, want := relSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("relSpread(1..10) = %g, want %g", got, want)
	}
	// quantiles([1, 2], n=4) extrapolates: [0.75, 1.5, 2.25].
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestOverlap(t *testing.T) {
	spans := []span{{start: 10, end: 20}, {start: 30, end: 40}, {start: 50, end: 60}}
	for _, c := range []struct{ a, b, want int64 }{
		{0, 5, 0}, {0, 15, 5}, {12, 18, 6}, {15, 35, 10}, {0, 100, 30}, {40, 50, 0}, {59, 70, 1},
	} {
		if got := overlap(spans, time.Duration(c.a), time.Duration(c.b)); int64(got) != c.want {
			t.Errorf("overlap(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAttributeSeams(t *testing.T) {
	spans := []span{
		{id: 1, op: 1, kind: spanHandler, class: classUpsert, start: 0, end: 100},
		{id: 2, op: 2, kind: spanHandler, class: classBatch, start: 20, end: 120},
		{id: 3, op: 3, kind: spanHandler, class: classDelete, start: 130, end: 200},
		{kind: spanWriteBatch, start: 30, end: 60},   // inside both 1 and 2: the earlier one caused it
		{kind: spanCommit, start: 60, end: 110},      // only 2 still runs
		{kind: spanWriteBatch, start: 140, end: 150}, // 3
		{kind: spanWriteBatch, start: 300, end: 310}, // no handler: left alone
	}
	attributeSeams(spans)
	for i, want := range []uint32{1, 2, 3, 0} {
		if got := spans[3+i]; got.op != want || got.parent != want {
			t.Errorf("seam span %d: op %d parent %d, want %d", i, got.op, got.parent, want)
		}
	}
	if spans[4].class != classBatch {
		t.Errorf("commit span has class %s, want batch", spans[4].class)
	}
}
