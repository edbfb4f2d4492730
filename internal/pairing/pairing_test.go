package pairing

import (
	"math"
	"testing"
	"testing/quick"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

var (
	testCatalog  *flavor.Catalog
	testAnalyzer *Analyzer
)

func init() {
	var err error
	testCatalog, err = flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	testAnalyzer = NewAnalyzer(testCatalog)
}

func lookup(t *testing.T, name string) flavor.ID {
	t.Helper()
	id, ok := testCatalog.Lookup(name)
	if !ok {
		t.Fatalf("catalog missing %q", name)
	}
	return id
}

func ids(t *testing.T, names ...string) []flavor.ID {
	t.Helper()
	out := make([]flavor.ID, len(names))
	for i, n := range names {
		out[i] = lookup(t, n)
	}
	return out
}

func TestSharedMatchesCatalog(t *testing.T) {
	f := func(a, b uint16) bool {
		x := flavor.ID(int(a) % testCatalog.Len())
		y := flavor.ID(int(b) % testCatalog.Len())
		if x == y {
			// The diagonal is unused (recipes never repeat ingredients)
			// and intentionally left 0 in the matrix.
			return testAnalyzer.Shared(x, y) == 0
		}
		return testAnalyzer.Shared(x, y) == testCatalog.SharedCompounds(x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedDiagonalIsProfileSize(t *testing.T) {
	// Shared(i,i) is 0 by construction (matrix diagonal untouched);
	// recipes never repeat ingredients so the diagonal is unused.
	for i := 0; i < 5; i++ {
		if got := testAnalyzer.Shared(flavor.ID(i), flavor.ID(i)); got != 0 {
			t.Fatalf("diagonal %d = %d", i, got)
		}
	}
}

func TestRecipeScoreTwoIngredients(t *testing.T) {
	// With exactly two ingredients, Ns = |F(a) ∩ F(b)|.
	pair := ids(t, "tomato", "basil")
	got, ok := testAnalyzer.RecipeScore(pair)
	if !ok {
		t.Fatal("two-ingredient recipe should be scorable")
	}
	want := float64(testCatalog.SharedCompounds(pair[0], pair[1]))
	if got != want {
		t.Fatalf("Ns = %v, want %v", got, want)
	}
}

func TestRecipeScoreFormula(t *testing.T) {
	// Manual check of the 2/(n(n-1)) Σ formula on three ingredients.
	r := ids(t, "tomato", "basil", "olive oil")
	s01 := float64(testAnalyzer.Shared(r[0], r[1]))
	s02 := float64(testAnalyzer.Shared(r[0], r[2]))
	s12 := float64(testAnalyzer.Shared(r[1], r[2]))
	want := 2 * (s01 + s02 + s12) / (3 * 2)
	got, ok := testAnalyzer.RecipeScore(r)
	if !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("Ns = %v, want %v", got, want)
	}
}

func TestRecipeScorePermutationInvariant(t *testing.T) {
	r := ids(t, "tomato", "basil", "olive oil", "garlic", "salt")
	base, ok := testAnalyzer.RecipeScore(r)
	if !ok {
		t.Fatal("unscorable")
	}
	src := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		perm := append([]flavor.ID(nil), r...)
		src.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		got, ok := testAnalyzer.RecipeScore(perm)
		if !ok || got != base {
			t.Fatalf("permutation changed score: %v vs %v", got, base)
		}
	}
}

func TestRecipeScoreUndefined(t *testing.T) {
	if _, ok := testAnalyzer.RecipeScore(nil); ok {
		t.Fatal("empty recipe should be unscorable")
	}
	if _, ok := testAnalyzer.RecipeScore(ids(t, "tomato")); ok {
		t.Fatal("singleton recipe should be unscorable")
	}
}

func TestRecipeScoreSkipsNoProfileIngredients(t *testing.T) {
	// gelatin has no profile; adding it must not change the score.
	base, _ := testAnalyzer.RecipeScore(ids(t, "tomato", "basil", "olive oil"))
	with, ok := testAnalyzer.RecipeScore(ids(t, "tomato", "basil", "olive oil", "gelatin"))
	if !ok || with != base {
		t.Fatalf("no-profile ingredient changed score: %v vs %v", with, base)
	}
	// A recipe of only no-profile ingredients is unscorable.
	if _, ok := testAnalyzer.RecipeScore(ids(t, "gelatin", "food coloring")); ok {
		t.Fatal("profile-free recipe should be unscorable")
	}
	// One profiled + one unprofiled: still fewer than two profiled.
	if _, ok := testAnalyzer.RecipeScore(ids(t, "tomato", "gelatin")); ok {
		t.Fatal("single profiled ingredient should be unscorable")
	}
}

func TestRecipeScoreNonNegative(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 15 {
			raw = raw[:15]
		}
		seen := map[flavor.ID]bool{}
		var r []flavor.ID
		for _, v := range raw {
			id := flavor.ID(int(v) % testCatalog.Len())
			if !seen[id] {
				seen[id] = true
				r = append(r, id)
			}
		}
		if len(r) < 2 {
			return true
		}
		s, ok := testAnalyzer.RecipeScore(r)
		return !ok || s >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// buildTestStore assembles a small fixed cuisine for null-model tests.
func buildTestStore(t *testing.T) (*recipedb.Store, *recipedb.Cuisine) {
	t.Helper()
	s := recipedb.NewStore(testCatalog)
	recipes := [][]string{
		{"tomato", "basil", "olive oil", "garlic"},
		{"tomato", "mozzarella cheese", "basil"},
		{"pasta", "parmesan cheese", "olive oil", "black pepper"},
		{"tomato", "olive oil", "oregano", "garlic", "onion"},
		{"eggplant", "tomato", "parmesan cheese", "basil", "olive oil"},
		{"pasta", "tomato", "garlic", "chili pepper", "olive oil"},
		{"polenta", "parmesan cheese", "butter"},
		{"risotto rice", "onion", "white wine", "parmesan cheese", "butter"},
	}
	for i, names := range recipes {
		ing := make([]flavor.ID, 0, len(names))
		for _, n := range names {
			id, ok := testCatalog.Lookup(n)
			if !ok {
				// fall back for names not in catalog
				id, ok = testCatalog.Lookup("rice")
				if !ok {
					t.Fatal("rice missing")
				}
			}
			dup := false
			for _, e := range ing {
				if e == id {
					dup = true
				}
			}
			if !dup {
				ing = append(ing, id)
			}
		}
		if _, err := s.Add("r", recipedb.Italy, recipedb.AllRecipes, ing); err != nil {
			t.Fatalf("recipe %d: %v", i, err)
		}
	}
	return s, s.BuildCuisine(recipedb.Italy)
}

func TestCuisineScore(t *testing.T) {
	store, c := buildTestStore(t)
	mean, n := testAnalyzer.CuisineScore(store, c)
	if n != 8 {
		t.Fatalf("scored %d of 8", n)
	}
	// Must equal the arithmetic mean of individual recipe scores.
	var sum float64
	for _, rid := range c.RecipeIDs {
		v, ok := testAnalyzer.RecipeScore(store.Recipe(rid).Ingredients)
		if !ok {
			t.Fatal("unscorable recipe in fixture")
		}
		sum += v
	}
	if math.Abs(mean-sum/8) > 1e-12 {
		t.Fatalf("CuisineScore %v != manual %v", mean, sum/8)
	}
}

func TestNullSamplerErrors(t *testing.T) {
	store, c := buildTestStore(t)
	if _, err := NewNullSampler(testAnalyzer, store, c, Model(9), rng.New(1)); err == nil {
		t.Fatal("invalid model accepted")
	}
	empty := store.BuildCuisine(recipedb.Korea)
	if _, err := NewNullSampler(testAnalyzer, store, empty, RandomModel, rng.New(1)); err == nil {
		t.Fatal("empty cuisine accepted")
	}
}

func TestNullSamplerPreservesSizeDistribution(t *testing.T) {
	store, c := buildTestStore(t)
	sizes := c.SizeHistogram()
	for _, m := range AllModels() {
		s, err := NewNullSampler(testAnalyzer, store, c, m, rng.New(uint64(m)+3))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for i := 0; i < 500; i++ {
			r := s.Draw()
			if sizes.Count(len(r)) == 0 {
				t.Fatalf("%s: drew size %d not in cuisine size set %v", m, len(r), sizes.Support())
			}
		}
	}
}

func TestNullSamplerDrawsDistinctFromPool(t *testing.T) {
	store, c := buildTestStore(t)
	inPool := map[flavor.ID]bool{}
	for _, id := range c.UniqueIngredients {
		inPool[id] = true
	}
	for _, m := range AllModels() {
		s, err := NewNullSampler(testAnalyzer, store, c, m, rng.New(uint64(m)+11))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			r := s.Draw()
			seen := map[flavor.ID]bool{}
			for _, id := range r {
				if !inPool[id] {
					t.Fatalf("%s drew %q outside the cuisine set", m, testCatalog.Ingredient(id).Name)
				}
				if seen[id] {
					t.Fatalf("%s drew duplicate ingredient", m)
				}
				seen[id] = true
			}
		}
	}
}

func TestCategoryModelPreservesComposition(t *testing.T) {
	store, c := buildTestStore(t)
	// Build the multiset of category compositions of the cuisine.
	comp := func(r []flavor.ID) string {
		counts := make([]byte, flavor.NumCategories)
		for _, id := range r {
			counts[testCatalog.Ingredient(id).Category]++
		}
		return string(counts)
	}
	valid := map[string]bool{}
	for _, rid := range c.RecipeIDs {
		valid[comp(store.Recipe(rid).Ingredients)] = true
	}
	for _, m := range []Model{CategoryModel, FrequencyCategoryModel} {
		s, err := NewNullSampler(testAnalyzer, store, c, m, rng.New(uint64(m)+17))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			r := s.Draw()
			if !valid[comp(r)] {
				t.Fatalf("%s drew a category composition not present in the cuisine", m)
			}
		}
	}
}

func TestFrequencyModelBiasesTowardPopular(t *testing.T) {
	store, c := buildTestStore(t)
	// tomato (freq 5) should be drawn far more often than butter (freq 2)
	// under the frequency model, roughly matching the 5:2 ratio.
	tomato := lookup(t, "tomato")
	butter := lookup(t, "butter")
	s, err := NewNullSampler(testAnalyzer, store, c, FrequencyModel, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	var nt, nb int
	for i := 0; i < 30000; i++ {
		for _, id := range s.Draw() {
			switch id {
			case tomato:
				nt++
			case butter:
				nb++
			}
		}
	}
	ratio := float64(nt) / float64(nb)
	// Without-replacement draws damp the ratio below 5/2=2.5; it must
	// still clearly exceed 1.5.
	if ratio < 1.5 {
		t.Fatalf("frequency model ratio tomato/butter = %.2f, want > 1.5", ratio)
	}
	// Random model should be near 1.
	s2, _ := NewNullSampler(testAnalyzer, store, c, RandomModel, rng.New(29))
	nt, nb = 0, 0
	for i := 0; i < 30000; i++ {
		for _, id := range s2.Draw() {
			switch id {
			case tomato:
				nt++
			case butter:
				nb++
			}
		}
	}
	ratio = float64(nt) / float64(nb)
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("random model ratio = %.2f, want ≈ 1", ratio)
	}
}

func TestCompareDeterministic(t *testing.T) {
	store, c := buildTestStore(t)
	a, err := Compare(testAnalyzer, store, c, RandomModel, 2000, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(testAnalyzer, store, c, RandomModel, 2000, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Compare not deterministic: %+v vs %+v", a, b)
	}
	if a.NRandom != 2000 {
		t.Fatalf("NRandom = %d", a.NRandom)
	}
	if a.Region != recipedb.Italy || a.Model != RandomModel {
		t.Fatalf("metadata wrong: %+v", a)
	}
	// Z must be consistent with the stored moments.
	wantZ := (a.Observed - a.NullMean) / (a.NullStd / math.Sqrt(float64(a.NRandom)))
	if math.Abs(a.Z-wantZ) > 1e-9 {
		t.Fatalf("Z = %v, want %v", a.Z, wantZ)
	}
}

func TestModelScore(t *testing.T) {
	store, c := buildTestStore(t)
	v, err := ModelScore(testAnalyzer, store, c, FrequencyModel, 2000, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("model score = %v", v)
	}
}

func TestModelStrings(t *testing.T) {
	if RandomModel.String() != "Random" || FrequencyCategoryModel.String() != "Frequency+Category" {
		t.Fatal("model names wrong")
	}
	if got := Model(9).String(); got != "Model(9)" {
		t.Fatalf("invalid model String = %q", got)
	}
	if len(AllModels()) != 4 {
		t.Fatal("paper defines 4 models")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Region: recipedb.Italy, Model: RandomModel, Observed: 1, NullMean: 2, NullStd: 3, Z: -4.5}
	s := r.String()
	if s == "" || len(s) < 10 {
		t.Fatalf("Result.String = %q", s)
	}
}
