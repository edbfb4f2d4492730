package main

import (
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/synth"
)

// testEngine builds an engine with the result cache enabled over the
// small-scale synthetic corpus.
func testEngine(t *testing.T) *query.Engine {
	t.Helper()
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	analyzer := pairing.NewAnalyzer(catalog)
	store, err := synth.Generate(analyzer, synth.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	engine := query.NewEngine(store, analyzer)
	engine.EnableResultCache(query.DefaultResultCacheBytes)
	return engine
}

// TestFormatStatsUnifiedView pins the ":stats" output format: one line
// per cache tier, plan cache first, result cache second — the view the
// interactive command and the session summary share. Dashboards scrape
// these lines, so the shape is a contract.
func TestFormatStatsUnifiedView(t *testing.T) {
	plan := query.CacheStats{Hits: 12, Misses: 3, Entries: 3, Capacity: 256}
	res := query.ResultCacheStats{
		Enabled: true, Hits: 7, Misses: 8, Entries: 5,
		Bytes: 4096, Capacity: 16777216, Evicted: 2, Invalidated: 1,
		Rejected: 1, FirstSight: 4,
	}
	got := formatStats(plan, res)
	want := "plan cache:   12 hits, 3 misses, 3 entries (cap 256)\n" +
		"result cache: 7 hits, 8 misses, 5 entries, 4096/16777216 bytes, 2 evicted, 1 invalidated, 1 rejected, 4 first sight\n"
	if got != want {
		t.Errorf("formatStats:\n got: %q\nwant: %q", got, want)
	}
}

// TestFormatStatsDisabledResultCache checks the view still renders both
// tiers when the result cache is off.
func TestFormatStatsDisabledResultCache(t *testing.T) {
	got := formatStats(query.CacheStats{Capacity: 256}, query.ResultCacheStats{})
	if !strings.Contains(got, "result cache: disabled\n") {
		t.Errorf("disabled result cache not reported: %q", got)
	}
	if !strings.HasPrefix(got, "plan cache:   0 hits, 0 misses, 0 entries (cap 256)\n") {
		t.Errorf("plan cache line malformed: %q", got)
	}
}

// TestStatsThroughEngine runs real statements through an engine and
// checks the rendered stats reflect both tiers' counters.
func TestStatsThroughEngine(t *testing.T) {
	engine := testEngine(t)
	const stmt = "SELECT region, count(*) FROM recipes GROUP BY region"
	for i := 0; i < 3; i++ {
		if _, err := engine.Run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	out := formatStats(engine.CacheStats(), engine.ResultCacheStats())
	// The first run misses both caches and is not admitted; the second
	// hits the plan cache and admits its result; the third hits the
	// result cache without touching the plan cache.
	if !strings.Contains(out, "plan cache:   1 hits, 1 misses") {
		t.Errorf("plan line: %q", out)
	}
	if !strings.Contains(out, "result cache: 1 hits, 2 misses, 1 entries") {
		t.Errorf("result line: %q", out)
	}
}
