package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

// testEnv is shared across tests; built once at a small scale.
var testEnv = func() *Env {
	e, err := NewEnv(TestOptions())
	if err != nil {
		panic(err)
	}
	return e
}()

func TestNewEnvValidation(t *testing.T) {
	bad := TestOptions()
	bad.Scale = 0
	if _, err := NewEnv(bad); err == nil {
		t.Fatal("scale 0 accepted")
	}
	bad = TestOptions()
	bad.NullRecipes = 10
	if _, err := NewEnv(bad); err == nil {
		t.Fatal("tiny null sample accepted")
	}
}

func TestTable1(t *testing.T) {
	rows := testEnv.Table1()
	if len(rows) != recipedb.NumMajorRegions+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	var total int
	for _, row := range rows[:recipedb.NumMajorRegions] {
		if row.Recipes <= 0 {
			t.Errorf("%s has no recipes", row.Region.Code())
		}
		if row.Ingredients <= 0 {
			t.Errorf("%s has no ingredients", row.Region.Code())
		}
		// Scaled counts must be proportional to Table 1.
		want := int(math.Round(float64(row.Region.PaperRecipeCount()) * 0.05))
		if want < 4 {
			want = 4
		}
		if row.Recipes != want {
			t.Errorf("%s recipes = %d, want %d", row.Region.Code(), row.Recipes, want)
		}
		total += row.Recipes
	}
	world := rows[len(rows)-1]
	if world.Region != recipedb.World {
		t.Fatal("last row should be World")
	}
	if world.Recipes < total {
		t.Fatalf("world %d < major sum %d", world.Recipes, total)
	}
	out := testEnv.Table1Report().String()
	if !strings.Contains(out, "45772") || !strings.Contains(out, "INSC") {
		t.Fatalf("report missing content:\n%s", out)
	}
}

func TestFig2(t *testing.T) {
	h := testEnv.Fig2()
	if len(h.Values) != recipedb.NumMajorRegions+1 {
		t.Fatalf("heatmap rows = %d", len(h.Values))
	}
	if len(h.ColLabels) != flavor.NumCategories {
		t.Fatalf("heatmap cols = %d", len(h.ColLabels))
	}
	for i, row := range h.Values {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %s sums to %v", h.RowLabels[i], sum)
		}
	}
	tbl := testEnv.Fig2Table()
	if len(tbl.Rows) != recipedb.NumMajorRegions+1 {
		t.Fatal("fig2 table rows wrong")
	}
}

func TestFig3a(t *testing.T) {
	results := testEnv.Fig3a()
	if len(results) != recipedb.NumMajorRegions+1 {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		if res.Mean < 5 || res.Mean > 13 {
			t.Errorf("%s mean size %.1f implausible", res.Region.Code(), res.Mean)
		}
		if res.Max > 28 {
			t.Errorf("%s max size %d above generator bound", res.Region.Code(), res.Max)
		}
		last := res.CDF[len(res.CDF)-1]
		if math.Abs(last-1) > 1e-9 {
			t.Errorf("%s CDF ends at %v", res.Region.Code(), last)
		}
	}
	out := testEnv.Fig3aReport().String()
	if !strings.Contains(out, "WORLD") {
		t.Fatal("fig3a report missing WORLD")
	}
}

func TestFig3b(t *testing.T) {
	results := testEnv.Fig3b()
	for _, res := range results {
		if len(res.RankFreq) == 0 {
			t.Fatalf("%s empty rank-frequency", res.Region.Code())
		}
		if res.RankFreq[0] != 1 {
			t.Errorf("%s top rank not normalized to 1", res.Region.Code())
		}
		for i := 1; i < len(res.RankFreq); i++ {
			if res.RankFreq[i] > res.RankFreq[i-1] {
				t.Errorf("%s rank-frequency not monotone", res.Region.Code())
				break
			}
		}
		if res.Gini <= 0 || res.Gini >= 1 {
			t.Errorf("%s Gini %v outside (0,1)", res.Region.Code(), res.Gini)
		}
	}
	out := testEnv.Fig3bReport().String()
	if !strings.Contains(out, "f(rank 10)") {
		t.Fatal("fig3b report missing rank columns")
	}
}

func TestFig4SingleRegion(t *testing.T) {
	row, err := testEnv.Fig4Region(recipedb.Italy)
	if err != nil {
		t.Fatal(err)
	}
	if row.ZCuisine <= 0 {
		t.Errorf("Italy Z = %.1f, paper reports positive pairing", row.ZCuisine)
	}
	// Frequency model must land closer to the cuisine than the category
	// model does (the paper's central model finding).
	gapFreq := math.Abs(row.Observed - row.ModelMean[pairing.FrequencyModel])
	gapCat := math.Abs(row.Observed - row.ModelMean[pairing.CategoryModel])
	if gapFreq >= gapCat {
		t.Errorf("frequency gap %.2f not below category gap %.2f", gapFreq, gapCat)
	}
	if row.ZModel[pairing.RandomModel] != 0 {
		t.Error("random model Z must be 0 by construction")
	}
}

func TestFig4NegativeRegion(t *testing.T) {
	row, err := testEnv.Fig4Region(recipedb.Scandinavia)
	if err != nil {
		t.Fatal(err)
	}
	if row.ZCuisine >= 0 {
		t.Errorf("Scandinavia Z = %.1f, paper reports negative pairing", row.ZCuisine)
	}
	if row.ZModel[pairing.FrequencyModel] >= 0 {
		t.Errorf("frequency model should track the negative cuisine, Z = %.1f",
			row.ZModel[pairing.FrequencyModel])
	}
}

func TestFig5(t *testing.T) {
	fig4 := []Fig4Row{
		{Region: recipedb.Italy, ZCuisine: 100},
		{Region: recipedb.Scandinavia, ZCuisine: -50},
	}
	rows := testEnv.Fig5(3, fig4)
	if len(rows) != recipedb.NumMajorRegions {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row.Top) == 0 || len(row.Top) > 3 {
			t.Errorf("%s top = %d contributors", row.Region.Code(), len(row.Top))
		}
		switch row.Region {
		case recipedb.Italy:
			if row.Sign != 1 {
				t.Error("Italy sign should come from fig4 rows")
			}
			// For a positive cuisine the top contributor's removal should
			// reduce N̄s.
			if row.Top[0].DeltaPct > 0 {
				t.Errorf("Italy top contributor has positive ΔN̄s%%: %+v", row.Top[0])
			}
		case recipedb.Scandinavia:
			if row.Sign != -1 {
				t.Error("Scandinavia sign should come from fig4 rows")
			}
		}
	}
	pos, neg := testEnv.Fig5Report(rows)
	if len(pos.Rows)+len(neg.Rows) != recipedb.NumMajorRegions {
		t.Fatal("fig5 report row split wrong")
	}
}

func TestExtTuples(t *testing.T) {
	res, err := testEnv.ExtTuples([]recipedb.Region{recipedb.Greece}, 300)
	if err != nil {
		t.Fatal(err)
	}
	matchExtGolden(t, "tuples", res)
	if len(res) != 3 { // k = 2, 3, 4
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.K != i+2 {
			t.Errorf("result %d has k=%d", i, r.K)
		}
		if r.Observed < 0 || r.NullMean < 0 {
			t.Errorf("negative tuple scores: %+v", r)
		}
	}
	out := ExtTuplesReport(res).String()
	if !strings.Contains(out, "GRC") {
		t.Fatal("tuples report missing region")
	}
}

func TestExtRobustness(t *testing.T) {
	rows, err := testEnv.ExtRobustness([]recipedb.Region{recipedb.Italy, recipedb.Japan}, 200)
	if err != nil {
		t.Fatal(err)
	}
	matchExtGolden(t, "robustness", rows)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Lo > r.Observed || r.Hi < r.Observed {
			t.Errorf("%s CI [%v,%v] excludes point %v", r.Region.Code(), r.Lo, r.Hi, r.Observed)
		}
		if !r.SignStable {
			t.Errorf("%s pairing sign not bootstrap-stable", r.Region.Code())
		}
	}
}

func TestExtEvolution(t *testing.T) {
	points, err := testEnv.ExtEvolution([]float64{-1.0, 0, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	matchExtGolden(t, "evolution", points)
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Z must increase with β across the sweep endpoints, and the
	// endpoints must straddle a wide range.
	if points[0].Z >= points[2].Z {
		t.Errorf("Z not increasing in β: %+v", points)
	}
	if points[0].Z > 0 {
		t.Errorf("β=-1 should give negative pairing, Z=%+.1f", points[0].Z)
	}
	if points[2].Z < 0 {
		t.Errorf("β=+1 should give positive pairing, Z=%+.1f", points[2].Z)
	}
}

func TestExtAliasing(t *testing.T) {
	res := testEnv.ExtAliasing(1500)
	matchExtGolden(t, "aliasing", res)
	if res.Phrases != 1500 {
		t.Fatalf("phrases = %d", res.Phrases)
	}
	if res.ResolveRate < 0.9 {
		t.Errorf("resolve rate %.3f", res.ResolveRate)
	}
	if res.Precision < 0.9 {
		t.Errorf("precision %.3f", res.Precision)
	}
	if res.Matched+res.Partial+res.Unrecognized != res.Phrases {
		t.Error("status counts do not partition phrases")
	}
	out := ExtAliasingReport(res).String()
	if !strings.Contains(out, "Precision") {
		t.Fatal("aliasing report missing header")
	}
}

func TestExtPerturbation(t *testing.T) {
	rows, err := testEnv.ExtPerturbation([]recipedb.Region{recipedb.Italy, recipedb.Scandinavia}, 0.15, 800)
	if err != nil {
		t.Fatal(err)
	}
	matchExtGolden(t, "perturbation", rows)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.SignStable {
			t.Errorf("%s: pairing sign flipped under 15%% dropout (base %+.1f, perturbed %+.1f)",
				r.Region.Code(), r.ZBase, r.ZPerturbed)
		}
		if r.Dropout != 0.15 {
			t.Errorf("dropout not recorded: %v", r.Dropout)
		}
	}
	out := ExtPerturbationReport(rows).String()
	if !strings.Contains(out, "SignStable") {
		t.Fatal("report missing header")
	}
}

func TestExtNetwork(t *testing.T) {
	s := testEnv.ExtNetwork(5, 7)
	matchExtGolden(t, "network", s)
	if s.Nodes == 0 || s.Edges == 0 {
		t.Fatalf("degenerate network summary: %+v", s)
	}
	if s.Density <= 0 || s.Density > 1 {
		t.Fatalf("density %v", s.Density)
	}
	if s.BackboneEdges <= 0 || s.BackboneEdges >= s.Edges {
		t.Fatalf("backbone %d of %d edges", s.BackboneEdges, s.Edges)
	}
	if len(s.TopPairs) != 7 {
		t.Fatalf("top pairs = %d", len(s.TopPairs))
	}
	out := testEnv.ExtNetworkReport(s).String()
	if !strings.Contains(out, "SharedCompounds") {
		t.Fatal("network report missing header")
	}
}

func TestAuthenticityReport(t *testing.T) {
	tbl, err := testEnv.AuthenticityReport(3)
	if err != nil {
		t.Fatal(err)
	}
	matchExtGolden(t, "authenticity", authenticityGolden(t, testEnv, 3))
	if len(tbl.Rows) != recipedb.NumMajorRegions {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestRunnerUnknownName(t *testing.T) {
	r := &Runner{Env: testEnv, Out: &bytes.Buffer{}}
	if err := r.Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunnerNames(t *testing.T) {
	names := Names()
	if len(names) != 15 {
		t.Fatalf("names = %v", names)
	}
	for _, want := range []string{"table1", "fig2", "fig3a", "fig3b", "fig4", "fig5", "tuples", "robustness", "evolution", "aliasing", "perturbation", "network", "classify"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q not registered", want)
		}
	}
}

func TestRunnerLightExperiments(t *testing.T) {
	var buf bytes.Buffer
	r := &Runner{Env: testEnv, Out: &buf}
	for _, name := range []string{"table1", "fig2", "fig3a", "fig3b", "aliasing"} {
		if err := r.Run(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, marker := range []string{"== table1 ==", "== fig2 ==", "Fig 3a", "Fig 3b", "Precision"} {
		if !strings.Contains(out, marker) {
			t.Errorf("output missing %q", marker)
		}
	}
}

func TestRunnerFig4CacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	r := &Runner{Env: testEnv, Out: &buf}
	if err := r.Run("fig4"); err != nil {
		t.Fatal(err)
	}
	cached := r.fig4Cache
	if cached == nil {
		t.Fatal("fig4 cache not populated")
	}
	if err := r.Run("fig5"); err != nil {
		t.Fatal(err)
	}
	if &r.fig4Cache[0] != &cached[0] {
		t.Fatal("fig5 recomputed fig4")
	}
	out := buf.String()
	if !strings.Contains(out, "Fig 5(a)") || !strings.Contains(out, "Fig 5(b)") {
		t.Fatalf("fig5 output missing tables")
	}
}
