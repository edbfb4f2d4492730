package synth

import (
	"math"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

var (
	testCatalog  *flavor.Catalog
	testAnalyzer *pairing.Analyzer
	testStore    *recipedb.Store // shared small corpus, built once
)

func init() {
	var err error
	testCatalog, err = flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	testAnalyzer = pairing.NewAnalyzer(testCatalog)
	testStore, err = Generate(testAnalyzer, TestConfig())
	if err != nil {
		panic(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testAnalyzer, TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != testStore.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), testStore.Len())
	}
	for i := 0; i < a.Len(); i += 97 { // sample stride for speed
		ra, rb := a.Recipe(i), testStore.Recipe(i)
		if ra.Name != rb.Name || ra.Region != rb.Region || len(ra.Ingredients) != len(rb.Ingredients) {
			t.Fatalf("recipe %d differs between identical seeds", i)
		}
		for j := range ra.Ingredients {
			if ra.Ingredients[j] != rb.Ingredients[j] {
				t.Fatalf("recipe %d ingredient %d differs", i, j)
			}
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	cfg := TestConfig()
	cfg.Seed++
	b, err := Generate(testAnalyzer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := 0; i < b.Len() && i < testStore.Len(); i += 53 {
		ra, rb := testStore.Recipe(i), b.Recipe(i)
		if len(ra.Ingredients) != len(rb.Ingredients) {
			differ = true
			break
		}
		for j := range ra.Ingredients {
			if ra.Ingredients[j] != rb.Ingredients[j] {
				differ = true
			}
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical corpora")
	}
}

func TestRegionRecipeCountsScale(t *testing.T) {
	cfg := TestConfig()
	for _, r := range recipedb.AllRegions() {
		want := int(math.Round(float64(r.PaperRecipeCount()) * cfg.Scale))
		if want < 4 {
			want = 4
		}
		got := testStore.RegionLen(r)
		if got != want {
			t.Errorf("%s: %d recipes, want %d", r.Code(), got, want)
		}
	}
}

func TestRecipeSizesBounded(t *testing.T) {
	cfg := TestConfig()
	h := stats.NewHistogram()
	for i := 0; i < testStore.Len(); i++ {
		sz := testStore.Recipe(i).Size()
		if sz < cfg.MinSize || sz > cfg.MaxSize {
			t.Fatalf("recipe %d size %d outside [%d,%d]", i, sz, cfg.MinSize, cfg.MaxSize)
		}
		h.Add(sz, 1)
	}
	// Mean near the paper's ≈9.
	if m := h.Mean(); math.Abs(m-cfg.MeanSize) > 1.0 {
		t.Fatalf("mean size %.2f far from %.1f", m, cfg.MeanSize)
	}
}

func TestNoDuplicateIngredientsWithinRecipe(t *testing.T) {
	for i := 0; i < testStore.Len(); i++ {
		r := testStore.Recipe(i)
		seen := map[flavor.ID]bool{}
		for _, id := range r.Ingredients {
			if seen[id] {
				t.Fatalf("recipe %d has duplicate %q", i, testCatalog.Ingredient(id).Name)
			}
			seen[id] = true
		}
	}
}

func TestUniqueIngredientCoverage(t *testing.T) {
	// Per-region unique ingredients should be a sizeable fraction of the
	// Table 1 target even at 12% corpus scale, and never exceed it.
	for _, r := range []recipedb.Region{recipedb.Italy, recipedb.USA, recipedb.France} {
		c := testStore.BuildCuisine(r)
		target := r.PaperIngredientCount()
		if target > testCatalog.Len() {
			target = testCatalog.Len()
		}
		got := c.NumUniqueIngredients()
		if got > target {
			t.Errorf("%s: %d unique exceeds pool %d", r.Code(), got, target)
		}
		if float64(got) < 0.5*float64(target) {
			t.Errorf("%s: only %d of %d unique ingredients at 12%% scale", r.Code(), got, target)
		}
	}
}

func TestRankFrequencyScaling(t *testing.T) {
	// Fig 3b: popularity is heavy-tailed — the top 10% of ingredients
	// should account for well over half of all use.
	c := testStore.BuildCuisine(recipedb.USA)
	shares := stats.CumulativeShare(c.FrequencyVector())
	k := len(shares) / 10
	if k == 0 {
		t.Skip("cuisine too small")
	}
	if shares[k-1] < 0.4 {
		t.Fatalf("top 10%% of ingredients cover only %.2f of uses; no scaling", shares[k-1])
	}
	// And the distribution must not be a point mass either.
	if shares[0] > 0.5 {
		t.Fatalf("single ingredient covers %.2f of uses", shares[0])
	}
}

func TestPairingDirectionsMatchPaper(t *testing.T) {
	// The core calibration: every major region must deviate from its
	// Random control in the direction the paper reports in Fig 4.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, r := range recipedb.MajorRegions() {
		c := testStore.BuildCuisine(r)
		res, err := pairing.Compare(testAnalyzer, testStore, c, pairing.RandomModel, 4000, rng.New(uint64(r)+100))
		if err != nil {
			t.Fatalf("%s: %v", r.Code(), err)
		}
		wantSign := r.PairingSign()
		gotSign := 0
		if res.Z > 0 {
			gotSign = 1
		} else if res.Z < 0 {
			gotSign = -1
		}
		if gotSign != wantSign {
			t.Errorf("%s: Z=%.1f, want sign %+d", r.Code(), res.Z, wantSign)
		}
	}
}

func TestFrequencyModelTracksCuisineCategoryDoesNot(t *testing.T) {
	// Fig 4's second claim on a positive and a negative cuisine.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, r := range []recipedb.Region{recipedb.Italy, recipedb.Japan} {
		c := testStore.BuildCuisine(r)
		obs, _ := testAnalyzer.CuisineScore(testStore, c)
		src := rng.New(uint64(r) + 500)
		rs, err := pairing.NewNullSampler(testAnalyzer, testStore, c, pairing.RandomModel, src.Split(0))
		if err != nil {
			t.Fatal(err)
		}
		rm, _, _ := rs.NullMoments(6000)
		freq, err := pairing.ModelScore(testAnalyzer, testStore, c, pairing.FrequencyModel, 6000, src.Split(1))
		if err != nil {
			t.Fatal(err)
		}
		cat, err := pairing.ModelScore(testAnalyzer, testStore, c, pairing.CategoryModel, 6000, src.Split(2))
		if err != nil {
			t.Fatal(err)
		}
		// Frequency model must close most of the gap to the observed
		// cuisine; the category model must close clearly less.
		gapFull := math.Abs(obs - rm)
		gapFreq := math.Abs(obs - freq)
		gapCat := math.Abs(obs - cat)
		if gapFreq > 0.5*gapFull {
			t.Errorf("%s: frequency model closes too little: obs=%.2f rand=%.2f freq=%.2f",
				r.Code(), obs, rm, freq)
		}
		if gapCat < gapFreq {
			t.Errorf("%s: category model (gap %.2f) closer than frequency (gap %.2f)",
				r.Code(), gapCat, gapFreq)
		}
	}
}

func TestCategoryUsageSignatures(t *testing.T) {
	// Fig 2 signatures: France uses dairy more than vegetables; the
	// Indian Subcontinent is spice-forward.
	fra := testStore.CategoryUsage(recipedb.France)
	if fra[flavor.Dairy] <= fra[flavor.Vegetable] {
		t.Errorf("France: dairy %.3f should exceed vegetable %.3f",
			fra[flavor.Dairy], fra[flavor.Vegetable])
	}
	insc := testStore.CategoryUsage(recipedb.IndianSubcontinent)
	world := testStore.CategoryUsage(recipedb.World)
	if insc[flavor.Spice] <= world[flavor.Spice] {
		t.Errorf("INSC spice %.3f should exceed world %.3f",
			insc[flavor.Spice], world[flavor.Spice])
	}
}

func TestGenerateConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = 5 },
		func(c *Config) { c.MinSize = 1 },
		func(c *Config) { c.MaxSize = 2 },
		func(c *Config) { c.MeanSize = 1 },
		func(c *Config) { c.MeanSize = 99 },
		func(c *Config) { c.CopyProb = -0.1 },
		func(c *Config) { c.CopyProb = 1.1 },
		func(c *Config) { c.MutationRate = 0 },
		func(c *Config) { c.Candidates = 1 },
		func(c *Config) { c.ExploreProb = -1 },
	}
	for i, mut := range mutations {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := Generate(testAnalyzer, cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSourceAssignment(t *testing.T) {
	counts := testStore.SourceCounts()
	for s, n := range counts {
		if n == 0 {
			t.Errorf("source %s unused", s)
		}
	}
	// TarlaDalal should be concentrated in the Indian Subcontinent.
	var tdINSC, tdAll int
	for id := range testStore.Slots() {
		if r := testStore.Recipe(id); !r.Deleted && r.Source == recipedb.TarlaDalal {
			tdAll++
			if r.Region == recipedb.IndianSubcontinent {
				tdINSC++
			}
		}
	}
	if tdAll == 0 || float64(tdINSC)/float64(tdAll) < 0.5 {
		t.Errorf("TarlaDalal should be mostly INSC: %d of %d", tdINSC, tdAll)
	}
}

func TestCategoryWeightPositive(t *testing.T) {
	for _, r := range recipedb.AllRegions() {
		for _, cat := range flavor.AllCategories() {
			if w := CategoryWeight(r, cat); w <= 0 {
				t.Fatalf("weight(%s,%s) = %v", r.Code(), cat, w)
			}
		}
	}
	// Boost applies: France dairy weight above baseline.
	if CategoryWeight(recipedb.France, flavor.Dairy) <= CategoryWeight(recipedb.Italy, flavor.Dairy) {
		t.Error("France dairy boost missing")
	}
}

func TestMinorRegionsToggle(t *testing.T) {
	cfg := TestConfig()
	cfg.IncludeMinorRegions = false
	store, err := Generate(testAnalyzer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recipedb.AllRegions() {
		if r.Minor() && store.RegionLen(r) != 0 {
			t.Errorf("minor region %s generated despite toggle", r.Code())
		}
	}
}
