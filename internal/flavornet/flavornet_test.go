package flavornet

import (
	"math"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

var (
	testCatalog  *flavor.Catalog
	testAnalyzer *pairing.Analyzer
	testNet      *Network
)

func init() {
	var err error
	testCatalog, err = flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	testAnalyzer = pairing.NewAnalyzer(testCatalog)
	testNet = Build(testAnalyzer, 5)
}

func TestBuildBasics(t *testing.T) {
	if testNet.NumNodes() == 0 || testNet.NumEdges() == 0 {
		t.Fatalf("degenerate network: %d nodes %d edges", testNet.NumNodes(), testNet.NumEdges())
	}
	// Only profiled ingredients are nodes.
	for _, id := range testNet.Nodes() {
		if !testCatalog.Ingredient(id).HasProfile {
			t.Fatalf("no-profile ingredient %q is a node", testCatalog.Ingredient(id).Name)
		}
	}
	if testNet.MinShared() != 5 {
		t.Fatal("threshold not recorded")
	}
	// minShared < 1 clamps to 1.
	n0 := Build(testAnalyzer, 0)
	if n0.MinShared() != 1 {
		t.Fatal("minShared clamp failed")
	}
}

func TestEdgesRespectThreshold(t *testing.T) {
	for _, id := range testNet.Nodes()[:50] {
		for _, e := range testNet.Neighbors(id) {
			if e.Weight < 5 {
				t.Fatalf("edge %v below threshold", e)
			}
			if got := testAnalyzer.Shared(e.A, e.B); got != e.Weight {
				t.Fatalf("edge weight %d != shared %d", e.Weight, got)
			}
		}
	}
}

func TestDegreeAndStrengthSymmetric(t *testing.T) {
	// Sum of degrees = 2E.
	total := 0
	for _, id := range testNet.Nodes() {
		total += testNet.Degree(id)
	}
	if total != 2*testNet.NumEdges() {
		t.Fatalf("degree sum %d != 2E %d", total, 2*testNet.NumEdges())
	}
	// Strength is positive wherever degree is.
	for _, id := range testNet.Nodes()[:50] {
		if testNet.Degree(id) > 0 && testNet.Strength(id) < testNet.Degree(id)*5 {
			t.Fatalf("strength below degree × threshold for %d", id)
		}
	}
}

func TestDensityRange(t *testing.T) {
	d := testNet.Density()
	if d <= 0 || d > 1 {
		t.Fatalf("density %v", d)
	}
	// Raising the threshold can only lower the density.
	sparse := Build(testAnalyzer, 25)
	if sparse.Density() > d {
		t.Fatal("higher threshold increased density")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	var any bool
	for _, id := range testNet.Nodes()[:80] {
		c := testNet.ClusteringCoefficient(id)
		if c < 0 || c > 1 {
			t.Fatalf("clustering %v outside [0,1]", c)
		}
		if c > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no clustering anywhere — implausible for a flavor network")
	}
	mc := testNet.MeanClustering()
	if mc <= 0 || mc > 1 {
		t.Fatalf("mean clustering %v", mc)
	}
}

func TestBackbone(t *testing.T) {
	bb := testNet.Backbone(0.05)
	if len(bb) == 0 {
		t.Fatal("empty backbone")
	}
	if len(bb) >= testNet.NumEdges() {
		t.Fatalf("backbone (%d) did not prune the network (%d)", len(bb), testNet.NumEdges())
	}
	// Sorted, deduplicated, canonical A < B.
	for i, e := range bb {
		if e.A >= e.B {
			t.Fatalf("edge %v not canonical", e)
		}
		if i > 0 && (bb[i-1].A > e.A || (bb[i-1].A == e.A && bb[i-1].B >= e.B)) {
			t.Fatal("backbone not sorted")
		}
	}
	// Tighter alpha prunes at least as much.
	tight := testNet.Backbone(0.005)
	if len(tight) > len(bb) {
		t.Fatal("tighter alpha kept more edges")
	}
	// Invalid alpha falls back to default rather than exploding.
	if len(testNet.Backbone(-1)) == 0 {
		t.Fatal("alpha fallback broken")
	}
}

func TestTopPairs(t *testing.T) {
	top := testNet.TopPairs(10)
	if len(top) != 10 {
		t.Fatalf("got %d pairs", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Fatal("pairs not descending by weight")
		}
	}
	// No duplicates in canonical form.
	seen := map[[2]flavor.ID]bool{}
	for _, e := range top {
		k := [2]flavor.ID{e.A, e.B}
		if seen[k] {
			t.Fatalf("duplicate pair %v", k)
		}
		seen[k] = true
	}
	// Clamp beyond edge count.
	all := testNet.TopPairs(1 << 30)
	if len(all) != testNet.NumEdges() {
		t.Fatalf("TopPairs clamp: %d vs %d", len(all), testNet.NumEdges())
	}
}

func buildCorpus(t *testing.T) *recipedb.Store {
	t.Helper()
	s := recipedb.NewStore(testCatalog)
	add := func(region recipedb.Region, names ...string) {
		ids := make([]flavor.ID, len(names))
		for i, n := range names {
			id, ok := testCatalog.Lookup(n)
			if !ok {
				t.Fatalf("missing %q", n)
			}
			ids[i] = id
		}
		if _, err := s.Add("r", region, recipedb.AllRecipes, ids); err != nil {
			t.Fatal(err)
		}
	}
	// Make garam masala exclusively Indian; tomato global.
	add(recipedb.IndianSubcontinent, "garam masala", "tomato", "onion")
	add(recipedb.IndianSubcontinent, "garam masala", "lentil", "ghee")
	add(recipedb.Italy, "tomato", "basil")
	add(recipedb.France, "tomato", "butter")
	return s
}

func TestPrevalence(t *testing.T) {
	s := buildCorpus(t)
	c := s.BuildCuisine(recipedb.IndianSubcontinent)
	prev := Prevalence(s, c)
	gm, _ := testCatalog.Lookup("garam masala")
	tomato, _ := testCatalog.Lookup("tomato")
	if prev[gm] != 1.0 {
		t.Fatalf("garam masala prevalence %v, want 1", prev[gm])
	}
	if prev[tomato] != 0.5 {
		t.Fatalf("tomato prevalence %v, want 0.5", prev[tomato])
	}
	// Empty cuisine yields empty map.
	if got := Prevalence(s, s.BuildCuisine(recipedb.Korea)); len(got) != 0 {
		t.Fatal("empty cuisine should give empty prevalence")
	}
}

func TestAuthenticity(t *testing.T) {
	s := buildCorpus(t)
	ids, scores, err := Authenticity(s, recipedb.IndianSubcontinent)
	if err != nil {
		t.Fatal(err)
	}
	scoreOf := map[flavor.ID]float64{}
	for i, id := range ids {
		scoreOf[id] = scores[i]
	}
	gm, _ := testCatalog.Lookup("garam masala")
	tomato, _ := testCatalog.Lookup("tomato")
	// garam masala: 1.0 here, 0 elsewhere -> score 1.0.
	if math.Abs(scoreOf[gm]-1.0) > 1e-9 {
		t.Fatalf("garam masala authenticity %v", scoreOf[gm])
	}
	// tomato appears in two other regions too, so its score is lower.
	if scoreOf[tomato] >= scoreOf[gm] {
		t.Fatalf("tomato (%v) should be less authentic than garam masala (%v)",
			scoreOf[tomato], scoreOf[gm])
	}
	if _, _, err := Authenticity(s, recipedb.World); err == nil {
		t.Fatal("World should be rejected")
	}
}

func TestTopAuthentic(t *testing.T) {
	s := buildCorpus(t)
	ids, scores, err := TopAuthentic(s, recipedb.IndianSubcontinent, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || len(scores) != 2 {
		t.Fatalf("got %d/%d", len(ids), len(scores))
	}
	if scores[0] < scores[1] {
		t.Fatal("not descending")
	}
	gm, _ := testCatalog.Lookup("garam masala")
	found := ids[0] == gm || ids[1] == gm
	if !found {
		t.Fatal("garam masala should rank among top authentic ingredients")
	}
	// k beyond length clamps.
	all, _, err := TopAuthentic(s, recipedb.IndianSubcontinent, 1000)
	if err != nil || len(all) == 0 {
		t.Fatal("clamp failed")
	}
}
