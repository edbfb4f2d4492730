package pairing

// Reference implementation of the null-model draw and the recipe score:
// the map-based code the pool-local sampling kernel replaced, kept
// verbatim so the tests below can hold the kernel to it draw for draw,
// bit for bit and variate for variate.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

type refSampler struct {
	model     Model
	analyzer  *Analyzer
	src       *rng.Source
	pool      []flavor.ID
	freq      *rng.Weighted
	catPool   [][]flavor.ID
	catFreq   []*rng.Weighted
	templates [][]flavor.ID
	buf       []flavor.ID
	seen      map[flavor.ID]struct{}
}

func newRefSampler(t testing.TB, a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model, src *rng.Source) *refSampler {
	t.Helper()
	s := &refSampler{
		model:     m,
		analyzer:  a,
		src:       src,
		pool:      c.UniqueIngredients,
		templates: store.IngredientLists(c.RecipeIDs),
		seen:      make(map[flavor.ID]struct{}, 32),
	}
	switch m {
	case FrequencyModel:
		weights := make([]float64, len(s.pool))
		for i, id := range s.pool {
			weights[i] = float64(c.Uses(id))
		}
		w, err := rng.NewWeighted(weights)
		if err != nil {
			t.Fatal(err)
		}
		s.freq = w
	case CategoryModel, FrequencyCategoryModel:
		catalog := a.Catalog()
		s.catPool = make([][]flavor.ID, flavor.NumCategories)
		for _, id := range s.pool {
			cat := catalog.Ingredient(id).Category
			s.catPool[cat] = append(s.catPool[cat], id)
		}
		if m == FrequencyCategoryModel {
			s.catFreq = make([]*rng.Weighted, flavor.NumCategories)
			for cat, ids := range s.catPool {
				if len(ids) == 0 {
					continue
				}
				weights := make([]float64, len(ids))
				for i, id := range ids {
					weights[i] = float64(c.Uses(id))
				}
				w, err := rng.NewWeighted(weights)
				if err != nil {
					t.Fatal(err)
				}
				s.catFreq[cat] = w
			}
		}
	}
	return s
}

func (s *refSampler) Draw() []flavor.ID {
	tmpl := s.templates[s.src.Intn(len(s.templates))]
	size := len(tmpl)
	s.buf = s.buf[:0]
	for k := range s.seen {
		delete(s.seen, k)
	}
	switch s.model {
	case RandomModel:
		if size >= len(s.pool) {
			// Degenerate: use the whole pool.
			s.buf = append(s.buf, s.pool...)
			return s.buf
		}
		for _, idx := range s.src.SampleWithoutReplacement(len(s.pool), size) {
			s.buf = append(s.buf, s.pool[idx])
		}
	case FrequencyModel:
		if size >= len(s.pool) {
			s.buf = append(s.buf, s.pool...)
			return s.buf
		}
		for len(s.buf) < size {
			id := s.pool[s.freq.Sample(s.src)]
			if _, dup := s.seen[id]; dup {
				continue
			}
			s.seen[id] = struct{}{}
			s.buf = append(s.buf, id)
		}
	case CategoryModel, FrequencyCategoryModel:
		catalog := s.analyzer.Catalog()
		for _, orig := range tmpl {
			cat := catalog.Ingredient(orig).Category
			id := s.drawFromCategory(cat, orig)
			s.seen[id] = struct{}{}
			s.buf = append(s.buf, id)
		}
	}
	return s.buf
}

func (s *refSampler) drawFromCategory(cat flavor.Category, orig flavor.ID) flavor.ID {
	pool := s.catPool[cat]
	if len(pool) == 0 {
		return orig // template ingredient category not in cuisine pool: keep original
	}
	for attempt := 0; attempt < 16; attempt++ {
		var id flavor.ID
		if s.model == FrequencyCategoryModel && s.catFreq[cat] != nil {
			id = pool[s.catFreq[cat].Sample(s.src)]
		} else {
			id = pool[s.src.Intn(len(pool))]
		}
		if _, dup := s.seen[id]; !dup {
			return id
		}
	}
	for _, id := range pool {
		if _, dup := s.seen[id]; !dup {
			return id
		}
	}
	return orig
}

func (s *refSampler) NullMoments(nRecipes int) (mean, std float64, scored int) {
	var acc stats.Accumulator
	for i := 0; i < nRecipes; i++ {
		if v, ok := refRecipeScore(s.analyzer, s.Draw()); ok {
			acc.Add(v)
		}
	}
	return acc.Mean(), acc.PopStdDev(), acc.N()
}

func refRecipeScore(a *Analyzer, ids []flavor.ID) (float64, bool) {
	// Gather profiled ingredients only.
	prof := make([]int, 0, len(ids))
	for _, id := range ids {
		if a.hasProfile[id] {
			prof = append(prof, int(id))
		}
	}
	n := len(prof)
	if n < 2 {
		return 0, false
	}
	var sum int64
	for i := 0; i < n; i++ {
		x := prof[i]
		for j := i + 1; j < n; j++ {
			y := prof[j]
			if x == y {
				continue // duplicate member: the dense diagonal was 0
			}
			sum += int64(a.sharedSym(x, y))
		}
	}
	return 2 * float64(sum) / (float64(n) * float64(n-1)), true
}

// requireSameStream holds one kernel sampler to the reference on one
// (store, cuisine, model, seed): identical ids for every draw, then
// identical moment bits, then an identical next variate — the kernel
// consumed exactly as many as the reference did.
func requireSameStream(t *testing.T, store *recipedb.Store, c *recipedb.Cuisine, m Model, seed uint64, draws, moments int) {
	t.Helper()
	src, refSrc := rng.New(seed), rng.New(seed)
	s, err := NewNullSampler(testAnalyzer, store, c, m, src)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSampler(t, testAnalyzer, store, c, m, refSrc)
	for i := 0; i < draws; i++ {
		got, want := s.Draw(), ref.Draw()
		if !slices.Equal(got, want) {
			t.Fatalf("%s seed %d draw %d: got %v, reference %v", m, seed, i, got, want)
		}
		gv, gok := testAnalyzer.RecipeScore(got)
		wv, wok := refRecipeScore(testAnalyzer, want)
		if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s seed %d draw %d: score (%v, %v), reference (%v, %v)", m, seed, i, gv, gok, wv, wok)
		}
	}
	mean, std, n := s.NullMoments(moments)
	rMean, rStd, rN := ref.NullMoments(moments)
	if math.Float64bits(mean) != math.Float64bits(rMean) || math.Float64bits(std) != math.Float64bits(rStd) || n != rN {
		t.Fatalf("%s seed %d: moments (%v, %v, %d), reference (%v, %v, %d)", m, seed, mean, std, n, rMean, rStd, rN)
	}
	if got, want := src.Uint64(), refSrc.Uint64(); got != want {
		t.Fatalf("%s seed %d: next variate %#x, reference %#x: the kernel consumed a different number of variates", m, seed, got, want)
	}
}

// cuisineFrom builds a one-region store from explicit ingredient lists.
func cuisineFrom(t *testing.T, recipes [][]flavor.ID) (*recipedb.Store, *recipedb.Cuisine) {
	t.Helper()
	s := recipedb.NewStore(testCatalog)
	for i, ing := range recipes {
		if _, err := s.Add("r", recipedb.Italy, recipedb.AllRecipes, ing); err != nil {
			t.Fatalf("recipe %d: %v", i, err)
		}
	}
	return s, s.BuildCuisine(recipedb.Italy)
}

// regionStore synthesizes a cuisine the way the corpus generator shapes
// them: sizes 2..14 over a pool of poolSize ingredients that includes
// the profile-less additives, with a popularity skew so the frequency
// models see unequal weights.
func regionStore(t *testing.T, seed uint64, poolSize, recipes int) (*recipedb.Store, *recipedb.Cuisine) {
	t.Helper()
	src := rng.New(seed)
	pool := src.Perm(testCatalog.Len())[:poolSize]
	for id := 0; id < testCatalog.Len(); id++ {
		if !testAnalyzer.hasProfile[id] {
			pool[src.Intn(4)] = id // the additives are common in real cuisines
		}
	}
	lists := make([][]flavor.ID, recipes)
	for r := range lists {
		size := 2 + src.Intn(13)
		seen := map[int]bool{}
		for len(lists[r]) < size {
			// Squaring the uniform skews toward the head of the pool.
			u := src.Float64()
			id := pool[int(u*u*float64(poolSize))]
			if !seen[id] {
				seen[id] = true
				lists[r] = append(lists[r], flavor.ID(id))
			}
		}
	}
	return cuisineFrom(t, lists)
}

func TestKernelMatchesReferenceAcrossRegions(t *testing.T) {
	regions := []struct {
		name              string
		seed              uint64
		poolSize, recipes int
	}{
		{"small", 101, 40, 60},
		{"typical", 202, 220, 500},
		{"wide", 303, 600, 900},
		{"dense", 404, 24, 300}, // sizes up to 14 of 24: Fisher–Yates branch and crowded categories
	}
	for _, r := range regions {
		store, c := regionStore(t, r.seed, r.poolSize, r.recipes)
		for _, m := range AllModels() {
			for _, seed := range []uint64{1, 20180416, 0xdeadbeef} {
				t.Run(fmt.Sprintf("%s/%s/%d", r.name, m, seed), func(t *testing.T) {
					requireSameStream(t, store, c, m, seed, 5000, 3000)
				})
			}
		}
	}
}

// byCategory returns up to n catalog ingredients of the category.
func byCategory(t *testing.T, cat flavor.Category, n int) []flavor.ID {
	t.Helper()
	ids := testCatalog.ByCategory(cat)
	if len(ids) < n {
		t.Fatalf("category %s has %d ingredients, need %d", cat, len(ids), n)
	}
	return ids[:n]
}

// outsideCategory returns n profiled catalog ingredients of any other
// category.
func outsideCategory(t *testing.T, cat flavor.Category, n int) []flavor.ID {
	t.Helper()
	var out []flavor.ID
	for id := 0; id < testCatalog.Len() && len(out) < n; id++ {
		if testAnalyzer.hasProfile[id] && testCatalog.Ingredient(flavor.ID(id)).Category != cat {
			out = append(out, flavor.ID(id))
		}
	}
	if len(out) < n {
		t.Fatalf("catalog has %d profiled ingredients outside %s, need %d", len(out), cat, n)
	}
	return out
}

func profileless(t *testing.T) []flavor.ID {
	t.Helper()
	var out []flavor.ID
	for id := 0; id < testCatalog.Len(); id++ {
		if !testAnalyzer.hasProfile[id] {
			out = append(out, flavor.ID(id))
		}
	}
	if len(out) == 0 {
		t.Fatal("catalog has no profile-less additive")
	}
	return out
}

func TestKernelMatchesReferenceOnEdges(t *testing.T) {
	cat := testCatalog.Ingredient(lookup(t, "tomato")).Category
	same := byCategory(t, cat, 6)
	other := outsideCategory(t, cat, 6)
	additives := profileless(t)

	cases := []struct {
		name    string
		recipes [][]flavor.ID
	}{
		// One template spans the whole pool: size >= len(pool).
		{"whole pool", [][]flavor.ID{
			append(append([]flavor.ID(nil), same[:3]...), other[:3]...),
			{same[0], other[0]},
		}},
		// 8 ingredients, sizes 2..7: every draw has k*4 >= n.
		{"fisher-yates", [][]flavor.ID{
			{same[0], same[1], other[0], other[1], other[2], other[3], other[4]},
			{same[2], other[0], other[1]},
			{same[0], other[2]},
		}},
		// A template holds every member of its category: the later slots
		// exhaust the retries and the linear scan's last member.
		{"crowded category", [][]flavor.ID{
			{same[0], same[1], same[2], same[3], other[0]},
			{same[0], other[1], other[2]},
		}},
		// Additives in templates and in the pool: zero rows and columns.
		{"additives", [][]flavor.ID{
			{additives[0], same[0], other[0], other[1]},
			{additives[0], other[2]},
			{additives[len(additives)-1], additives[0], same[1]},
			{same[0], same[1], other[3], other[4], other[5]},
		}},
	}
	for _, tc := range cases {
		store, c := cuisineFrom(t, tc.recipes)
		for _, m := range AllModels() {
			for _, seed := range []uint64{7, 8, 9} {
				t.Run(fmt.Sprintf("%s/%s/%d", tc.name, m, seed), func(t *testing.T) {
					requireSameStream(t, store, c, m, seed, 5000, 1000)
				})
			}
		}
	}
}

// TestKernelKeepsOriginalWhenCategoryExhausted drives the keep-original
// fallback: the corpus changes between the cuisine snapshot and the
// sampler's template snapshot, so a template names an ingredient whose
// category the pool lacks, and another packs more members of a category
// than the pool holds.
func TestKernelKeepsOriginalWhenCategoryExhausted(t *testing.T) {
	cat := testCatalog.Ingredient(lookup(t, "tomato")).Category
	same := byCategory(t, cat, 4)
	other := outsideCategory(t, cat, 4)
	store, c := cuisineFrom(t, [][]flavor.ID{
		{same[0], other[0], other[1]},
		{same[0], same[1], other[2]},
		{other[0], other[3]},
	})
	// After the snapshot: recipe 0 gains three members of a category of
	// which the pool has two, recipe 2 an additive the pool never saw.
	stranger := profileless(t)[0]
	if _, _, _, err := store.Upsert(c.RecipeIDs[0], "r", recipedb.Italy, recipedb.AllRecipes,
		[]flavor.ID{same[0], same[1], same[2], same[3], other[0]}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.Upsert(c.RecipeIDs[2], "r", recipedb.Italy, recipedb.AllRecipes,
		[]flavor.ID{other[0], stranger}); err != nil {
		t.Fatal(err)
	}
	for _, m := range AllModels() {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/%d", m, seed), func(t *testing.T) {
				requireSameStream(t, store, c, m, seed, 5000, 1000)
			})
		}
	}
	// The fallback must actually have fired: a category-model draw of
	// the widened template keeps members the pool does not hold.
	s, err := NewNullSampler(testAnalyzer, store, c, CategoryModel, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	inPool := map[flavor.ID]bool{}
	for _, id := range c.UniqueIngredients {
		inPool[id] = true
	}
	kept := false
	for i := 0; i < 200 && !kept; i++ {
		for _, id := range s.Draw() {
			kept = kept || !inPool[id]
		}
	}
	if !kept {
		t.Fatal("no draw kept a template ingredient from outside the pool")
	}
}

// TestKernelSurvivesGenerationWrap starts the stamp generation just
// short of its wrap: generation 0 would read every never-stamped slot
// as a member, so the draws across the wrap must still match.
func TestKernelSurvivesGenerationWrap(t *testing.T) {
	store, c := regionStore(t, 404, 24, 300)
	for _, m := range AllModels() {
		src, refSrc := rng.New(5), rng.New(5)
		s, err := NewNullSampler(testAnalyzer, store, c, m, src)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSampler(t, testAnalyzer, store, c, m, refSrc)
		s.gen = math.MaxUint32 - 20
		for i := 0; i < 100; i++ {
			if got, want := s.Draw(), ref.Draw(); !slices.Equal(got, want) {
				t.Fatalf("%s draw %d (generation %d): got %v, reference %v", m, i, s.gen, got, want)
			}
		}
		if s.gen > 100 {
			t.Fatalf("%s: generation %d did not wrap", m, s.gen)
		}
	}
}

func TestRecipeScoreMatchesReference(t *testing.T) {
	additive := profileless(t)[0]
	long := make([]flavor.ID, 0, 3*scoreStackIDs)
	src := rng.New(77)
	for len(long) < cap(long) {
		long = append(long, flavor.ID(src.Intn(testCatalog.Len()))) // duplicates included
	}
	cases := map[string][]flavor.ID{
		"empty":                  nil,
		"single":                 ids(t, "tomato"),
		"descending":             {40, 30, 20, 10},
		"duplicates":             append(ids(t, "tomato", "basil", "tomato", "garlic", "basil"), additive),
		"only additive and one":  {additive, lookup(t, "tomato")},
		"longer than the buffer": long,
		"exactly the buffer":     long[:scoreStackIDs],
	}
	for name, recipe := range cases {
		got, gok := testAnalyzer.RecipeScore(recipe)
		want, wok := refRecipeScore(testAnalyzer, recipe)
		if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: RecipeScore (%v, %v), reference (%v, %v)", name, got, gok, want, wok)
		}
	}
}

func TestSamplingKernelDoesNotAllocate(t *testing.T) {
	store, c := regionStore(t, 202, 220, 500)
	for _, m := range AllModels() {
		s, err := NewNullSampler(testAnalyzer, store, c, m, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		s.NullMoments(1000) // warm-up: scratch grows to the largest template
		if n := testing.AllocsPerRun(200, func() { s.Draw() }); n != 0 {
			t.Errorf("%s: Draw allocates %v times per call", m, n)
		}
		if n := testing.AllocsPerRun(5, func() { s.NullMoments(1000) }); n != 0 {
			t.Errorf("%s: NullMoments(1000) allocates %v times per call", m, n)
		}
	}
	recipe := store.Recipe(c.RecipeIDs[0]).Ingredients
	if n := testing.AllocsPerRun(200, func() { testAnalyzer.RecipeScore(recipe) }); n != 0 {
		t.Errorf("RecipeScore allocates %v times per call", n)
	}
}

func TestNullSamplerRejectsCountsWiderThanTheTable(t *testing.T) {
	store, c := buildTestStore(t)
	// A copy of the analyzer with one in-pool pair count beyond uint16.
	wide := *testAnalyzer
	wide.tri = append([]int32(nil), testAnalyzer.tri...)
	x, y := int(c.UniqueIngredients[0]), int(c.UniqueIngredients[1])
	wide.tri[wide.triRow[x]+y] = 1 << 16
	if _, err := NewNullSampler(&wide, store, c, RandomModel, rng.New(1)); err == nil {
		t.Fatal("a shared-compound count of 65536 was accepted into the uint16 table")
	}
}
