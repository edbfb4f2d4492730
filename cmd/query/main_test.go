package main

import (
	"fmt"
	"strings"
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

// TestFormatStatsUnifiedView pins an interactive session's output:
// tables on stdout, and on stderr one prompt per line read, the errors
// as the engine words them (one "query:" prefix) and nothing else — no
// cache summary at the end. ":stats" is no longer a command, so it
// reaches the parser like any other line.
func TestFormatStatsUnifiedView(t *testing.T) {
	engine := testEngine(t)
	_, parseErr := engine.Run(":stats")
	if parseErr == nil {
		t.Fatal(":stats parsed as a statement")
	}
	in := "-- a comment\n\n:stats\nSELECT count(*) FROM recipes\n"
	var out, errw strings.Builder
	interact(engine, strings.NewReader(in), &out, &errw)
	if want := "cql> cql> cql> " + parseErr.Error() + "\ncql> cql> \n"; errw.String() != want {
		t.Errorf("stderr:\n got: %q\nwant: %q", errw.String(), want)
	}
	if !strings.Contains(out.String(), "1 rows (scanned ") {
		t.Errorf("stdout lacks the count(*) table:\n%s", out.String())
	}
}

// TestFormatStatsDisabledResultCache checks that the deprecated
// EnableResultCache adds no cache: every run executes and returns its
// own Result.
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
}

// TestStatsThroughEngine runs real statements through an engine: a
// repeated statement answers as it did the first time, and a statement
// that fails to parse is an error.
func TestStatsThroughEngine(t *testing.T) {
	engine := testEngine(t)
	var first string
	for i, stmt := range []string{
		"SELECT region, count(*) FROM recipes GROUP BY region",
		"SELECT region, count(*) FROM recipes GROUP BY region",
		"SELECT count(*) FROM recipes WHERE size > 4",
	} {
		res, err := engine.Run(stmt)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(res.Columns, res.Rows)
		switch i {
		case 0:
			first = got
		case 1:
			if got != first {
				t.Errorf("repeated statement:\n got: %s\nwant: %s", got, first)
			}
		}
	}
	if _, err := engine.Run("SELEC nothing"); err == nil {
		t.Fatal("malformed statement ran")
	}
}
