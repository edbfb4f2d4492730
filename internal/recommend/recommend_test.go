package recommend

import (
	"errors"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/synth"
)

// shared fixture: catalog + 5%-scale synthetic corpus.
var (
	fixCatalog  *flavor.Catalog
	fixAnalyzer *pairing.Analyzer
	fixStore    *recipedb.Store
)

func init() {
	var err error
	fixCatalog, err = flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	fixAnalyzer = pairing.NewAnalyzer(fixCatalog)
	fixStore, err = synth.Generate(fixAnalyzer, synth.TestConfig())
	if err != nil {
		panic(err)
	}
}

func lookup(t *testing.T, name string) flavor.ID {
	t.Helper()
	id, ok := fixCatalog.Lookup(name)
	if !ok {
		t.Fatalf("catalog lacks %q", name)
	}
	return id
}

// complete runs Complete under one read of the fixture corpus.
func complete(region recipedb.Region, partial []flavor.ID, opts CompleteOptions) (sugs []Suggestion, err error) {
	fixStore.Read(func(v *recipedb.View) { sugs, err = Complete(v, fixAnalyzer, region, partial, opts) })
	return sugs, err
}

func TestCompleteBasics(t *testing.T) {
	partial := []flavor.ID{lookup(t, "tomato"), lookup(t, "garlic")}
	sugs, err := complete(recipedb.Italy, partial, CompleteOptions{K: 5})
	if err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if len(sugs) != 5 {
		t.Fatalf("suggestions = %d", len(sugs))
	}
	seen := map[flavor.ID]bool{partial[0]: true, partial[1]: true}
	prev := sugs[0].Score
	for _, s := range sugs {
		if seen[s.Ingredient] {
			t.Errorf("suggestion %v repeats a partial ingredient", s.Ingredient)
		}
		seen[s.Ingredient] = true
		if s.Score > prev {
			t.Error("suggestions not sorted by score")
		}
		prev = s.Score
		if !fixCatalog.Ingredient(s.Ingredient).HasProfile {
			t.Error("profile-less suggestion")
		}
		if s.Popularity < 0 || s.Popularity > 1 {
			t.Errorf("popularity %g outside [0,1]", s.Popularity)
		}
	}
}

func TestCompleteSignFlipsRanking(t *testing.T) {
	partial := []flavor.ID{lookup(t, "tomato"), lookup(t, "basil")}
	uniform, err := complete(recipedb.Italy, partial,
		CompleteOptions{K: 10, Sign: +1, PopularityWeight: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	contrast, err := complete(recipedb.Italy, partial,
		CompleteOptions{K: 10, Sign: -1, PopularityWeight: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// With popularity muted, uniform ranking maximizes shared compounds
	// and contrasting minimizes them: the top pick must differ and the
	// uniform top must share more with the partial recipe.
	sharedWith := func(id flavor.ID) int {
		total := 0
		for _, p := range partial {
			total += fixAnalyzer.Shared(id, p)
		}
		return total
	}
	if sharedWith(uniform[0].Ingredient) <= sharedWith(contrast[0].Ingredient) {
		t.Errorf("uniform top shares %d, contrasting top shares %d",
			sharedWith(uniform[0].Ingredient), sharedWith(contrast[0].Ingredient))
	}
}

func TestCompletePopularityWeight(t *testing.T) {
	partial := []flavor.ID{lookup(t, "tomato")}
	// With huge popularity weight, the top suggestion must be one of the
	// cuisine's most frequent ingredients.
	sugs, err := complete(recipedb.Italy, partial,
		CompleteOptions{K: 1, PopularityWeight: 1000})
	if err != nil {
		t.Fatal(err)
	}
	c := fixStore.BuildCuisine(recipedb.Italy)
	top := c.TopIngredients(5)
	found := false
	for _, id := range top {
		if id == sugs[0].Ingredient {
			found = true
		}
	}
	if !found {
		t.Errorf("popularity-dominated pick %v not among cuisine top-5 %v", sugs[0].Ingredient, top)
	}
}

func TestCompleteErrors(t *testing.T) {
	if _, err := complete(recipedb.Italy, nil, CompleteOptions{}); err == nil {
		t.Error("empty partial succeeded")
	}
	if _, err := complete(recipedb.Italy, []flavor.ID{flavor.ID(fixCatalog.Len() + 1)}, CompleteOptions{}); err == nil {
		t.Error("out-of-catalog partial succeeded")
	}
	// A minor region with no recipes in the test corpus errors cleanly.
	if fixStore.RegionLen(recipedb.Portugal) == 0 {
		if _, err := complete(recipedb.Portugal, []flavor.ID{lookup(t, "tomato")}, CompleteOptions{}); err == nil {
			t.Error("empty region succeeded")
		}
	}
}

func TestSubstitutesSameCategory(t *testing.T) {
	id := lookup(t, "basil")
	subs, err := Substitutes(fixCatalog, id, SubstituteOptions{K: 5, RequireSameCategory: true})
	if err != nil {
		t.Fatalf("Substitutes: %v", err)
	}
	if len(subs) != 5 {
		t.Fatalf("substitutes = %d", len(subs))
	}
	origCat := fixCatalog.Ingredient(id).Category
	prev := subs[0].Similarity
	for _, s := range subs {
		if s.Ingredient == id {
			t.Error("ingredient suggested as its own substitute")
		}
		if !s.SameCategory || fixCatalog.Ingredient(s.Ingredient).Category != origCat {
			t.Errorf("substitute %v outside category %v", s.Ingredient, origCat)
		}
		if s.Similarity > prev {
			t.Error("substitutes not sorted by similarity")
		}
		if s.Similarity < 0 || s.Similarity > 1 {
			t.Errorf("similarity %g outside [0,1]", s.Similarity)
		}
		prev = s.Similarity
	}
}

func TestSubstitutesCrossCategoryAndThreshold(t *testing.T) {
	id := lookup(t, "basil")
	all, err := Substitutes(fixCatalog, id, SubstituteOptions{K: 50, RequireSameCategory: false})
	if err != nil {
		t.Fatal(err)
	}
	crossCategory := false
	for _, s := range all {
		if !s.SameCategory {
			crossCategory = true
		}
	}
	if !crossCategory {
		t.Log("all top-50 substitutes share the category (plausible but unusual)")
	}
	// A similarity floor of 1.0 excludes everything.
	if _, err := Substitutes(fixCatalog, id, SubstituteOptions{K: 5, MinSimilarity: 1.01}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("impossible threshold err = %v", err)
	}
}

func TestSubstitutesErrors(t *testing.T) {
	if _, err := Substitutes(fixCatalog, flavor.ID(-1), SubstituteOptions{}); err == nil {
		t.Error("negative id succeeded")
	}
	if noProf, ok := fixCatalog.Lookup("cooking spray"); ok {
		if _, err := Substitutes(fixCatalog, noProf, SubstituteOptions{}); err == nil {
			t.Error("no-profile ingredient succeeded")
		}
	}
}

func TestSubstitutesSymmetryProperty(t *testing.T) {
	// Jaccard similarity is symmetric: if b ranks among a's substitutes
	// with similarity s, then a must appear in b's candidate set with
	// the same similarity (category permitting).
	a := lookup(t, "basil")
	subs, err := Substitutes(fixCatalog, a, SubstituteOptions{K: 3, RequireSameCategory: true})
	if err != nil {
		t.Fatal(err)
	}
	b := subs[0]
	back, err := Substitutes(fixCatalog, b.Ingredient, SubstituteOptions{K: fixCatalog.Len(), RequireSameCategory: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range back {
		if s.Ingredient == a {
			if s.Similarity != b.Similarity {
				t.Errorf("asymmetric similarity: %g vs %g", s.Similarity, b.Similarity)
			}
			return
		}
	}
	t.Error("original ingredient missing from reverse substitute list")
}
