package pairing

import (
	"math"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

// naiveContribution recomputes the leave-one-out percentage change by
// brute force, as a differential oracle for the cached implementation.
func naiveContribution(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, target flavor.ID) float64 {
	var base, removed stats.Accumulator
	for _, rid := range c.RecipeIDs {
		ings := store.Recipe(rid).Ingredients
		if v, ok := a.RecipeScore(ings); ok {
			base.Add(v)
		}
		var without []flavor.ID
		for _, id := range ings {
			if id != target {
				without = append(without, id)
			}
		}
		if v, ok := a.RecipeScore(without); ok {
			removed.Add(v)
		}
	}
	if removed.N() == 0 || base.Mean() == 0 {
		return 0
	}
	return 100 * (removed.Mean() - base.Mean()) / base.Mean()
}

func TestContributionsMatchNaive(t *testing.T) {
	store, c := buildTestStore(t)
	contribs := testAnalyzer.Contributions(store, c)
	if len(contribs) != len(c.UniqueIngredients) {
		t.Fatalf("got %d contributions for %d ingredients", len(contribs), len(c.UniqueIngredients))
	}
	byID := make(map[flavor.ID]Contribution, len(contribs))
	for _, ct := range contribs {
		byID[ct.Ingredient] = ct
	}
	for _, id := range c.UniqueIngredients {
		want := naiveContribution(testAnalyzer, store, c, id)
		got := byID[id].DeltaPct
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: cached %v, naive %v", testCatalog.Ingredient(id).Name, got, want)
		}
	}
}

func TestContributionMetadata(t *testing.T) {
	store, c := buildTestStore(t)
	contribs := testAnalyzer.Contributions(store, c)
	for _, ct := range contribs {
		if ct.Name != testCatalog.Ingredient(ct.Ingredient).Name {
			t.Fatalf("name mismatch for %d", ct.Ingredient)
		}
		if ct.Freq != c.Uses(ct.Ingredient) {
			t.Fatalf("freq mismatch for %s", ct.Name)
		}
	}
}

func TestContributionEmptyCuisine(t *testing.T) {
	s := recipedb.NewStore(testCatalog)
	c := s.BuildCuisine(recipedb.Korea)
	if got := testAnalyzer.Contributions(s, c); got != nil {
		t.Fatalf("empty cuisine should give nil, got %v", got)
	}
}

func TestTopContributorsPositiveSign(t *testing.T) {
	contribs := []Contribution{
		{Ingredient: 1, Name: "a", DeltaPct: -10},
		{Ingredient: 2, Name: "b", DeltaPct: +5},
		{Ingredient: 3, Name: "c", DeltaPct: -30},
		{Ingredient: 4, Name: "d", DeltaPct: -1},
	}
	top := TopContributors(contribs, 2, +1)
	if len(top) != 2 || top[0].Name != "c" || top[1].Name != "a" {
		t.Fatalf("positive top = %+v", top)
	}
	// Negative pairing: removal increasing N̄s most contributes most.
	top = TopContributors(contribs, 2, -1)
	if len(top) != 2 || top[0].Name != "b" || top[1].Name != "d" {
		t.Fatalf("negative top = %+v", top)
	}
	// k larger than slice clamps.
	if got := TopContributors(contribs, 99, +1); len(got) != 4 {
		t.Fatalf("clamp failed: %d", len(got))
	}
	// Ties break by ingredient ID.
	ties := []Contribution{
		{Ingredient: 9, DeltaPct: -5}, {Ingredient: 2, DeltaPct: -5},
	}
	top = TopContributors(ties, 2, +1)
	if top[0].Ingredient != 2 {
		t.Fatalf("tie break wrong: %+v", top)
	}
}

func TestTopContributorsDoesNotMutateInput(t *testing.T) {
	contribs := []Contribution{
		{Ingredient: 1, DeltaPct: -1},
		{Ingredient: 2, DeltaPct: -2},
	}
	TopContributors(contribs, 1, +1)
	if contribs[0].Ingredient != 1 {
		t.Fatal("input slice was reordered")
	}
}

func TestTupleScoreOrder2MatchesRecipeScore(t *testing.T) {
	r := ids(t, "tomato", "basil", "olive oil", "garlic")
	a, okA := testAnalyzer.RecipeScore(r)
	b, okB := testAnalyzer.TupleScore(r, 2)
	if okA != okB || math.Abs(a-b) > 1e-12 {
		t.Fatalf("order-2 tuple %v vs pair %v", b, a)
	}
}

func TestTupleScoreTriple(t *testing.T) {
	// For exactly 3 ingredients and k=3 there is one subset: the triple
	// intersection cardinality.
	r := ids(t, "tomato", "basil", "olive oil")
	got, ok := testAnalyzer.TupleScore(r, 3)
	if !ok {
		t.Fatal("triple unscorable")
	}
	inter := testCatalog.Profile(r[0]).Intersect(testCatalog.Profile(r[1])).Intersect(testCatalog.Profile(r[2]))
	if got != float64(inter.Count()) {
		t.Fatalf("triple = %v, want %d", got, inter.Count())
	}
}

func TestTupleScoreMonotoneNonIncreasing(t *testing.T) {
	// Higher-order intersections can only be as large as lower-order
	// ones on the same recipe: mean over k-tuples of |∩| is bounded by
	// the pairwise mean.
	r := ids(t, "tomato", "basil", "olive oil", "garlic", "onion", "oregano")
	prev := math.Inf(1)
	for k := 2; k <= 4; k++ {
		v, ok := testAnalyzer.TupleScore(r, k)
		if !ok {
			t.Fatalf("k=%d unscorable", k)
		}
		if v > prev+1e-9 {
			t.Fatalf("tuple score increased from k-1 to k=%d: %v > %v", k, v, prev)
		}
		prev = v
	}
}

func TestTupleScoreUndefined(t *testing.T) {
	if _, ok := testAnalyzer.TupleScore(ids(t, "tomato", "basil"), 3); ok {
		t.Fatal("k above recipe size should be unscorable")
	}
	if _, ok := testAnalyzer.TupleScore(ids(t, "tomato", "basil"), 1); ok {
		t.Fatal("k < 2 should be unscorable")
	}
}

func TestCompareTuples(t *testing.T) {
	store, c := buildTestStore(t)
	res, err := CompareTuples(testAnalyzer, store, c, 3, 1500, rngNew(41))
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 || res.Region != recipedb.Italy {
		t.Fatalf("metadata: %+v", res)
	}
	if res.NRandom == 0 || res.NullStd < 0 {
		t.Fatalf("moments: %+v", res)
	}
	if _, err := CompareTuples(testAnalyzer, store, c, 7, 100, rngNew(1)); err == nil {
		t.Fatal("k=7 should error")
	}
	if _, err := CompareTuples(testAnalyzer, store, c, 1, 100, rngNew(1)); err == nil {
		t.Fatal("k=1 should error")
	}
}

func rngNew(seed uint64) *rng.Source { return rng.New(seed) }
