package experiments

import (
	"bytes"
	"math"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// TestIntegrationCSVRoundTripPreservesAnalysis exercises the full
// pipeline across packages: generate corpus → export CSV → reload →
// rerun the pairing analysis → identical results. This guards the
// contract that exports are lossless for analysis purposes.
func TestIntegrationCSVRoundTripPreservesAnalysis(t *testing.T) {
	var buf bytes.Buffer
	if err := testEnv.Store.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := recipedb.ReadCSV(&buf, testEnv.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != testEnv.Store.Len() {
		t.Fatalf("reloaded %d of %d recipes", reloaded.Len(), testEnv.Store.Len())
	}
	for _, region := range []recipedb.Region{recipedb.Italy, recipedb.Japan} {
		orig := testEnv.Store.BuildCuisine(region)
		got := reloaded.BuildCuisine(region)
		so, no := testEnv.Analyzer.CuisineScore(testEnv.Store, orig)
		sg, ng := testEnv.Analyzer.CuisineScore(reloaded, got)
		if no != ng || math.Abs(so-sg) > 1e-12 {
			t.Fatalf("%s: score %v/%d after reload vs %v/%d before",
				region.Code(), sg, ng, so, no)
		}
		// Null model moments are identical for identical seeds.
		a, err := pairing.Compare(testEnv.Analyzer, testEnv.Store, orig,
			pairing.FrequencyModel, 1000, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		b, err := pairing.Compare(testEnv.Analyzer, reloaded, got,
			pairing.FrequencyModel, 1000, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if a.NullMean != b.NullMean || a.Z != b.Z {
			t.Fatalf("%s: null moments differ after reload", region.Code())
		}
	}
}

// TestIntegrationJSONRoundTripPreservesAnalysis mirrors the CSV check
// for the JSON codec.
func TestIntegrationJSONRoundTripPreservesAnalysis(t *testing.T) {
	var buf bytes.Buffer
	if err := testEnv.Store.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := recipedb.ReadJSON(&buf, testEnv.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	orig := testEnv.Store.BuildCuisine(recipedb.World)
	got := reloaded.BuildCuisine(recipedb.World)
	if orig.NumRecipes() != got.NumRecipes() ||
		orig.NumUniqueIngredients() != got.NumUniqueIngredients() {
		t.Fatal("world cuisine differs after JSON reload")
	}
}

// TestIntegrationEnvDeterminism asserts that two environments built
// from the same options produce identical headline numbers.
func TestIntegrationEnvDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	other, err := NewEnv(TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := testEnv.Fig4Region(recipedb.Greece)
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.Fig4Region(recipedb.Greece)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical options, different Fig4 rows:\n%+v\n%+v", a, b)
	}
}

// TestIntegrationContributionConsistency: removing the top positive
// contributor from a positive cuisine must lower the measured cuisine
// score (cross-package sanity between contribution analysis and
// scoring).
func TestIntegrationContributionConsistency(t *testing.T) {
	c := testEnv.Store.BuildCuisine(recipedb.Italy)
	contribs := testEnv.Analyzer.Contributions(testEnv.Store, c)
	top := pairing.TopContributors(contribs, 1, +1)[0]
	if top.DeltaPct >= 0 {
		t.Skip("no negative-delta contributor in tiny corpus")
	}
	base, _ := testEnv.Analyzer.CuisineScore(testEnv.Store, c)
	// Rescore every recipe with the ingredient deleted and compare the
	// resulting mean against the contribution's prediction.
	var sum float64
	n := 0
	for rid := range testEnv.Store.Slots() {
		r := testEnv.Store.Recipe(rid)
		if r.Deleted || r.Region != recipedb.Italy {
			continue
		}
		ids := make([]flavor.ID, 0, len(r.Ingredients))
		for _, id := range r.Ingredients {
			if id != top.Ingredient {
				ids = append(ids, id)
			}
		}
		if v, ok := testEnv.Analyzer.RecipeScore(ids); ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		t.Fatal("no scorable recipes after removal")
	}
	removedMean := sum / float64(n)
	if removedMean >= base {
		t.Fatalf("removing top positive contributor %q did not lower N̄s: %.3f -> %.3f",
			top.Name, base, removedMean)
	}
	predicted := base * (1 + top.DeltaPct/100)
	if math.Abs(predicted-removedMean) > 1e-9*math.Max(1, math.Abs(removedMean)) {
		t.Fatalf("contribution predicts %.6f, manual recomputation gives %.6f",
			predicted, removedMean)
	}
}
