package search

import (
	"bytes"
	"runtime"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// buildFixture indexes a small hand-built corpus.
func buildFixture(t *testing.T) (*Index, *recipedb.Store) {
	t.Helper()
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := recipedb.NewStore(catalog)
	ids := func(names ...string) []flavor.ID {
		out := make([]flavor.ID, len(names))
		for i, n := range names {
			id, ok := catalog.Lookup(n)
			if !ok {
				t.Fatalf("catalog lacks %q", n)
			}
			out[i] = id
		}
		return out
	}
	add := func(name string, region recipedb.Region, ings ...string) int {
		id, err := store.Add(name, region, recipedb.Epicurious, ids(ings...))
		if err != nil {
			t.Fatalf("Add(%q): %v", name, err)
		}
		return id
	}
	add("Classic Tomato Soup", recipedb.USA, "tomato", "onion", "butter", "salt")
	add("Tomato Basil Pasta", recipedb.Italy, "tomato", "basil", "garlic", "olive oil")
	add("Miso Glazed Salmon", recipedb.Japan, "salmon", "scallion", "ginger", "soy sauce")
	add("Garlic Butter Shrimp", recipedb.USA, "shrimp", "garlic", "butter", "parsley")
	return Build(store), store
}

func TestBuildStats(t *testing.T) {
	idx, _ := buildFixture(t)
	if idx.Vocabulary() == 0 {
		t.Fatal("empty vocabulary")
	}
}

func TestSearchRankingPrefersTermDensity(t *testing.T) {
	idx, store := buildFixture(t)
	hits := idx.Search("tomato", Options{})
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2", len(hits))
	}
	for _, h := range hits {
		name := store.Recipe(h.RecipeID).Name
		if name != "Classic Tomato Soup" && name != "Tomato Basil Pasta" {
			t.Errorf("unexpected hit %q", name)
		}
		if h.Score <= 0 {
			t.Errorf("non-positive score %g", h.Score)
		}
	}
	// "Classic Tomato Soup" mentions tomato twice (name + ingredient) in
	// 6 tokens vs twice in 7 for the pasta, so the soup ranks first.
	if store.Recipe(hits[0].RecipeID).Name != "Classic Tomato Soup" {
		t.Errorf("top hit = %q", store.Recipe(hits[0].RecipeID).Name)
	}
}

func TestSearchModeAll(t *testing.T) {
	idx, store := buildFixture(t)
	any := idx.Search("garlic butter", Options{Mode: ModeAny})
	all := idx.Search("garlic butter", Options{Mode: ModeAll})
	if len(all) != 1 {
		t.Fatalf("ModeAll hits = %d, want 1", len(all))
	}
	if store.Recipe(all[0].RecipeID).Name != "Garlic Butter Shrimp" {
		t.Errorf("ModeAll hit = %q", store.Recipe(all[0].RecipeID).Name)
	}
	if len(any) <= len(all) {
		t.Errorf("ModeAny (%d) should match at least as many as ModeAll (%d)", len(any), len(all))
	}
}

func TestSearchRegionFilter(t *testing.T) {
	idx, store := buildFixture(t)
	hits := idx.Search("tomato", Options{Region: recipedb.Italy, HasRegion: true})
	if len(hits) != 1 || store.Recipe(hits[0].RecipeID).Region != recipedb.Italy {
		t.Fatalf("region-filtered hits = %+v", hits)
	}
}

func TestSearchPluralAndCaseNormalization(t *testing.T) {
	idx, _ := buildFixture(t)
	// Plural, capitalized query must match the singular lowercase index.
	hits := idx.Search("TOMATOES", Options{})
	if len(hits) != 2 {
		t.Fatalf("plural query hits = %d, want 2", len(hits))
	}
}

func TestSearchFuzzy(t *testing.T) {
	idx, _ := buildFixture(t)
	if hits := idx.Search("tomatoe", Options{}); len(hits) != 2 {
		// "tomatoe" singularizes to itself; without fuzzy there may be
		// no exact posting, but Singularize may already fix it. Accept
		// either 0 (needs fuzzy) or 2 (singularizer handled it).
		if len(hits) != 0 {
			t.Fatalf("non-fuzzy hits = %d", len(hits))
		}
	}
	hits := idx.Search("tomat", Options{Fuzzy: true})
	if len(hits) != 2 {
		t.Fatalf("fuzzy hits = %d, want 2", len(hits))
	}
	// Fuzzy must not fire when the exact term exists.
	exact := idx.Search("garlic", Options{Fuzzy: true})
	for _, h := range exact {
		if h.Matched != 1 {
			t.Errorf("exact term matched %d", h.Matched)
		}
	}
}

func TestSearchLimitAndEmptyQuery(t *testing.T) {
	idx, _ := buildFixture(t)
	if hits := idx.Search("", Options{}); hits != nil {
		t.Errorf("empty query hits = %v", hits)
	}
	if hits := idx.Search("1 2 3", Options{}); hits != nil {
		t.Errorf("quantity-only query hits = %v", hits)
	}
	hits := idx.Search("tomato garlic butter", Options{Limit: 1})
	if len(hits) != 1 {
		t.Errorf("limited hits = %d", len(hits))
	}
}

func TestSearchUnknownTerm(t *testing.T) {
	idx, _ := buildFixture(t)
	if hits := idx.Search("xylophone", Options{}); len(hits) != 0 {
		t.Errorf("unknown term hits = %v", hits)
	}
}

func TestTopTerms(t *testing.T) {
	idx, _ := buildFixture(t)
	top := idx.TopTerms(3)
	if len(top) != 3 {
		t.Fatalf("TopTerms = %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Docs > top[i-1].Docs {
			t.Errorf("TopTerms not sorted: %v", top)
		}
	}
	// tomato/garlic/butter each appear in 2 docs; the top entries must
	// have Docs >= 2.
	if top[0].Docs < 2 {
		t.Errorf("top term %+v too rare", top[0])
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	idx, _ := buildFixture(t)
	a := idx.Search("garlic", Options{})
	b := idx.Search("garlic", Options{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic hit count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic ordering: %v vs %v", a, b)
		}
	}
}

// TestBuildIsTheSameAtAnyWorkerCount: the build cuts the slots into one
// span per GOMAXPROCS and joins the spans' lists in order, which must
// give the single-pass index whatever the count — one span, spans that
// hold only tombstones, more spans than the machine has CPUs.
func TestBuildIsTheSameAtAnyWorkerCount(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	store := env.Store
	for id := 0; id < store.Slots(); id++ {
		if id < 100 || id%5 == 0 { // a dead stretch at the front, gaps throughout
			if _, err := store.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, four := buildFixture(t) // fewer documents than workers
	for _, store := range []*recipedb.Store{store, four} {
		build := func(procs int) []byte {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return Build(store).CanonicalDump()
		}
		want := build(1)
		for _, procs := range []int{2, 3, 8, 64} {
			if !bytes.Equal(build(procs), want) {
				t.Errorf("Build of %d slots on %d workers differs from Build on one", store.Slots(), procs)
			}
		}
	}
}
