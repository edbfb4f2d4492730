package recommend

// The BuildCuisine-based recommender that Complete replaced, kept
// verbatim as the reference the counter-based Complete and
// Classifier.TrainLive are held to, and the randomized write script
// that holds them. BuildCuisine itself now copies the counters Complete
// reads, so the reference counts its cuisines with its own walk.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"culinary/internal/classify"
	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

// Recommender ranks completions and substitutions against one corpus
// snapshot. It is immutable after construction and safe for concurrent
// use; Version reports the corpus version it was built from, so serving
// layers can rebuild it epoch-by-epoch and stamp responses with the
// model's version.
type Recommender struct {
	analyzer *pairing.Analyzer
	catalog  *flavor.Catalog
	version  uint64
	// cuisines holds the per-region analytical views (plus World) as of
	// the snapshot; a region absent from the map had no live recipes.
	cuisines map[recipedb.Region]*walkedCuisine
}

// walkedCuisine is the part of the old recipedb.Cuisine the reference
// reads, counted by a walk over the region's recipes as the old
// BuildCuisine counted it.
type walkedCuisine struct {
	RecipeIDs         []int
	IngredientFreq    map[flavor.ID]int
	UniqueIngredients []flavor.ID
}

func (c *walkedCuisine) NumRecipes() int { return len(c.RecipeIDs) }

func walkCuisine(v *recipedb.View, r recipedb.Region) *walkedCuisine {
	c := &walkedCuisine{IngredientFreq: make(map[flavor.ID]int)}
	// The slots, not the store's region lists: the live counters are
	// checked against recipes found without them.
	for id := range v.Slots() {
		rec := v.Recipe(id)
		if rec.Deleted || r != recipedb.World && rec.Region != r {
			continue
		}
		c.RecipeIDs = append(c.RecipeIDs, rec.ID)
		for _, id := range rec.Ingredients {
			c.IngredientFreq[id]++
		}
	}
	for id := range c.IngredientFreq {
		c.UniqueIngredients = append(c.UniqueIngredients, id)
	}
	sort.Slice(c.UniqueIngredients, func(i, j int) bool { return c.UniqueIngredients[i] < c.UniqueIngredients[j] })
	return c
}

// NewFromView builds a Recommender against an already-held corpus view,
// pinning every per-region cuisine to the same (version, snapshot)
// pair — the entry point for background rebuilds.
func NewFromView(analyzer *pairing.Analyzer, v *recipedb.View) *Recommender {
	r := &Recommender{
		analyzer: analyzer,
		catalog:  v.Catalog(),
		version:  v.Version,
		cuisines: make(map[recipedb.Region]*walkedCuisine),
	}
	for _, region := range v.Regions() {
		r.cuisines[region] = walkCuisine(v, region)
	}
	if v.Len() > 0 {
		r.cuisines[recipedb.World] = walkCuisine(v, recipedb.World)
	}
	return r
}

// Complete suggests ingredients to extend partial within the given
// cuisine. Ingredients already present, profile-less entities and
// ingredients unused by the cuisine are excluded.
func (r *Recommender) Complete(region recipedb.Region, partial []flavor.ID, opts CompleteOptions) ([]Suggestion, error) {
	if len(partial) == 0 {
		return nil, fmt.Errorf("recommend: empty partial recipe")
	}
	if opts.K <= 0 {
		opts.K = 5
	}
	if opts.PopularityWeight == 0 {
		opts.PopularityWeight = 1.0
	}
	if opts.SameCategoryPenalty == 0 {
		opts.SameCategoryPenalty = 0.25
	}
	sign := opts.Sign
	if sign == 0 {
		sign = region.PairingSign()
	}
	if sign == 0 {
		sign = 1
	}
	c := r.cuisines[region]
	if c == nil || c.NumRecipes() == 0 {
		return nil, fmt.Errorf("recommend: region %s has no recipes", region.Code())
	}
	present := make(map[flavor.ID]bool, len(partial))
	catCount := make(map[flavor.Category]int)
	for _, id := range partial {
		if int(id) < 0 || int(id) >= r.catalog.Len() {
			return nil, fmt.Errorf("recommend: ingredient %d outside catalog", id)
		}
		present[id] = true
		catCount[r.catalog.Ingredient(id).Category]++
	}

	// Normalize flavor fit by the cuisine's own mean pair sharing so the
	// popularity and flavor terms live on comparable scales.
	meanShared, n := 0.0, 0
	for i := 0; i < len(partial); i++ {
		for j := i + 1; j < len(partial); j++ {
			meanShared += float64(r.analyzer.Shared(partial[i], partial[j]))
			n++
		}
	}
	norm := 1.0
	if n > 0 && meanShared > 0 {
		norm = meanShared / float64(n)
	}

	var out []Suggestion
	for _, cand := range c.UniqueIngredients {
		if present[cand] || !r.catalog.Ingredient(cand).HasProfile {
			continue
		}
		var fit float64
		profiled := 0
		for _, id := range partial {
			if !r.catalog.Ingredient(id).HasProfile {
				continue
			}
			fit += float64(r.analyzer.Shared(cand, id))
			profiled++
		}
		if profiled == 0 {
			continue
		}
		fit = fit / float64(profiled) / norm * float64(sign)
		pop := math.Log1p(float64(c.IngredientFreq[cand])) / math.Log1p(float64(c.NumRecipes()))
		score := fit + opts.PopularityWeight*pop
		score -= opts.SameCategoryPenalty * float64(catCount[r.catalog.Ingredient(cand).Category])
		out = append(out, Suggestion{
			Ingredient: cand,
			Score:      score,
			FlavorFit:  fit,
			Popularity: pop,
		})
	}
	if len(out) == 0 {
		return nil, ErrNoCandidates
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Ingredient < out[j].Ingredient
	})
	if opts.K < len(out) {
		out = out[:opts.K]
	}
	return out, nil
}

// TestCountersMatchReference drives a random script of inserts, same-
// and cross-region replacements, deletes and batches over a private
// corpus and, after every step, checks under one Read that
//   - a classifier trained with TrainLive scores every query as one
//     trained with TrainView(v, v.RegionRecipes(recipedb.World)) does,
//     by Float64bits, and fails where it fails;
//   - Complete ranks every candidate as the reference Complete above
//     does, by Float64bits, for each scripted region and World, and
//     fails where it fails.
func TestCountersMatchReference(t *testing.T) {
	const steps = 200
	var scored, ranked int // comparisons of a successful answer
	regions := recipedb.MajorRegions()[:4]
	pool := make([]flavor.ID, 0, 40)
	for i := 0; len(pool) < cap(pool); i += fixCatalog.Len() / cap(pool) {
		pool = append(pool, flavor.ID(i))
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := recipedb.NewStore(fixCatalog)
		randRegion := func() recipedb.Region { return regions[rng.Intn(len(regions))] }
		randIngredients := func(lo, hi int) []flavor.ID {
			perm := rng.Perm(len(pool))[:lo+rng.Intn(hi-lo+1)]
			out := make([]flavor.ID, len(perm))
			for i, p := range perm {
				out[i] = pool[p]
			}
			return out
		}
		// pick returns a random live slot, or -1 when there is none.
		pick := func() int {
			ids := s.RegionRecipes(recipedb.World)
			if len(ids) == 0 {
				return -1
			}
			return ids[rng.Intn(len(ids))]
		}
		upsert := func(id int, r recipedb.Region) {
			if _, _, _, err := s.Upsert(id, "dish", r, recipedb.AllRecipes, randIngredients(2, 8)); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < steps; step++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 4:
				op = "insert"
				upsert(-1, randRegion())
			case k == 4:
				op = "same-region replace"
				if id := pick(); id >= 0 {
					upsert(id, s.Recipe(id).Region)
				}
			case k == 5:
				op = "cross-region replace"
				if id := pick(); id >= 0 {
					upsert(id, randRegion())
				}
			case k < 8:
				op = "delete"
				if id := pick(); id >= 0 {
					if _, err := s.Remove(id); err != nil {
						t.Fatal(err)
					}
				}
			default:
				op = "batch"
				items := []recipedb.BatchItem{
					{ID: -1, Name: "batch insert", Region: randRegion(), Source: recipedb.AllRecipes, Ingredients: randIngredients(2, 8)},
				}
				if id := pick(); id >= 0 {
					items = append(items,
						recipedb.BatchItem{ID: id, Name: "batch replace", Region: randRegion(), Source: recipedb.AllRecipes, Ingredients: randIngredients(2, 8)},
						recipedb.BatchItem{Remove: true, ID: pick()})
				}
				s.ApplyBatch(items)
			}
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			s.Read(func(v *recipedb.View) {
				scored += checkClassifier(t, v, where, [][]flavor.ID{randIngredients(1, 1), randIngredients(2, 4), randIngredients(5, 8)})
				ref := NewFromView(fixAnalyzer, v)
				for _, r := range append(regions, recipedb.World) {
					partial := randIngredients(1, 3)
					opts := CompleteOptions{K: fixCatalog.Len()}
					want, wantErr := ref.Complete(r, partial, opts)
					got, err := Complete(v, fixAnalyzer, r, partial, opts)
					if !sameError(err, wantErr) {
						t.Fatalf("%s: Complete(%s) error %v, reference %v", where, r.Code(), err, wantErr)
					}
					if !sameSuggestions(got, want) {
						t.Fatalf("%s: Complete(%s, %v) =\n%v\nreference\n%v", where, r.Code(), partial, got, want)
					}
					if err == nil {
						ranked++
					}
				}
			})
		}
	}
	t.Logf("compared %d classifier and %d completion answers", scored, ranked)
	// Most steps must compare answers, not only errors.
	if scored < steps || ranked < steps {
		t.Fatalf("compared %d classifier and %d completion answers over %d steps", scored, ranked, 3*steps)
	}
}

// checkClassifier holds a TrainLive classifier to a TrainView one over
// every live recipe of v, and returns the number of queries both
// answered.
func checkClassifier(t *testing.T, v *recipedb.View, where string, queries [][]flavor.ID) int {
	t.Helper()
	live, ref := classify.New(), classify.New()
	err, wantErr := live.TrainLive(v), ref.TrainView(v, v.RegionRecipes(recipedb.World))
	if !sameError(err, wantErr) {
		t.Fatalf("%s: TrainLive error %v, TrainView %v", where, err, wantErr)
	}
	if err != nil {
		return 0
	}
	for _, q := range queries {
		got, err := live.Predict(q)
		want, wantErr := ref.Predict(q)
		if !sameError(err, wantErr) {
			t.Fatalf("%s: Predict(%v) error %v, reference %v", where, q, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: Predict(%v) has %d classes, reference %d", where, q, len(got), len(want))
		}
		for i := range want {
			if got[i].Region != want[i].Region ||
				math.Float64bits(got[i].LogPosterior) != math.Float64bits(want[i].LogPosterior) ||
				math.Float64bits(got[i].Probability) != math.Float64bits(want[i].Probability) {
				t.Fatalf("%s: Predict(%v)[%d] = %+v, reference %+v", where, q, i, got[i], want[i])
			}
		}
	}
	return len(queries)
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func sameSuggestions(a, b []Suggestion) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Ingredient != b[i].Ingredient ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) ||
			math.Float64bits(a[i].FlavorFit) != math.Float64bits(b[i].FlavorFit) ||
			math.Float64bits(a[i].Popularity) != math.Float64bits(b[i].Popularity) {
			return false
		}
	}
	return true
}
