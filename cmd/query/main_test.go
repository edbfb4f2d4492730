package main

import (
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/synth"
)

// testEngine builds an engine over the small-scale synthetic corpus.
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
	return query.NewEngine(store, analyzer)
}

// TestFormatStatsUnifiedView pins the ":stats" output format: the
// plan-cache line the interactive command and the session summary
// share. Dashboards scrape it, so the shape is a contract.
func TestFormatStatsUnifiedView(t *testing.T) {
	got := formatStats(query.CacheStats{Hits: 12, Misses: 3, Entries: 3, Capacity: 256})
	want := "plan cache:   12 hits, 3 misses, 3 entries (cap 256)\n"
	if got != want {
		t.Errorf("formatStats:\n got: %q\nwant: %q", got, want)
	}
}

// TestFormatStatsDisabledResultCache checks that the deprecated
// EnableResultCache adds no cache: every run executes and returns its
// own Result, and the view is the plan-cache line alone.
func TestFormatStatsDisabledResultCache(t *testing.T) {
	engine := testEngine(t)
	engine.EnableResultCache(query.DefaultResultCacheBytes)
	const stmt = "SELECT region, count(*) FROM recipes GROUP BY region"
	seen := map[*query.Result]bool{}
	for i := 0; i < 3; i++ {
		res, err := engine.Run(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if seen[res] {
			t.Fatalf("run %d returned a Result an earlier run returned", i)
		}
		seen[res] = true
	}
	got := formatStats(engine.CacheStats())
	if want := "plan cache:   2 hits, 1 misses, 1 entries (cap 256)\n"; got != want {
		t.Errorf("formatStats:\n got: %q\nwant: %q", got, want)
	}
}

// TestStatsThroughEngine runs real statements through an engine and
// checks the rendered line reflects the plan cache's counters: a
// statement that fails to parse misses and is not cached.
func TestStatsThroughEngine(t *testing.T) {
	engine := testEngine(t)
	for _, stmt := range []string{
		"SELECT region, count(*) FROM recipes GROUP BY region",
		"SELECT region, count(*) FROM recipes GROUP BY region",
		"SELECT count(*) FROM recipes WHERE size > 4",
	} {
		if _, err := engine.Run(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := engine.Run("SELEC nothing"); err == nil {
		t.Fatal("malformed statement ran")
	}
	got := formatStats(engine.CacheStats())
	if want := "plan cache:   1 hits, 3 misses, 2 entries (cap 256)\n"; got != want {
		t.Errorf("formatStats:\n got: %q\nwant: %q", got, want)
	}
}
