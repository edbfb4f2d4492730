// Package synth generates the synthetic CulinaryDB corpus.
//
// The real corpus (45,772 scraped recipes) is not redistributable, so
// the corpus is produced by the copy-mutate culinary evolution model the
// paper itself cites as explaining the observed patterns (Jain & Bagler,
// "Culinary evolution models for Indian cuisines", Physica A 2018),
// extended with a per-region flavor-affinity bias:
//
//   - New recipes either copy an existing recipe and mutate a fraction
//     of its ingredients, or are composed fresh. Both paths select
//     ingredients with probability proportional to current usage
//     (preferential attachment), which yields the heavy-tailed
//     rank-frequency popularity curves of Fig 3b.
//   - Ingredient selection is additionally biased by exp(β·s̃), where s̃
//     is the standardized mean shared-compound count between a candidate
//     and the partial recipe, and β is the region's pairing bias
//     (positive for the paper's 16 uniform-pairing regions, negative for
//     its 6 contrasting regions). This is the mechanism that makes each
//     cuisine deviate from its randomized control in the direction
//     reported in Fig 4.
//   - Region ingredient pools are drawn with region-specific category
//     preferences (France/British Isles/Scandinavia dairy-forward,
//     Indian Subcontinent/Africa/Middle East/Caribbean spice-forward,
//     …), reproducing the Fig 2 category heatmap structure.
//
// Recipe sizes follow a shifted Poisson distribution with mean ≈ 9
// bounded to [3, 28]: the bounded, thin-tailed distribution of Fig 3a.
//
// Determinism: each region draws only from its own stream,
// rng.New(Seed).Split(region+1), and Split does not advance its parent,
// so Generate draws the regions on min(GOMAXPROCS, regions) workers,
// installs them in region order, and IDs, versions and CanonicalDump do
// not depend on GOMAXPROCS (golden_test.go pins them). Within a region,
// never reorder or replace an rng draw: a sampler that consumes the
// stream differently (alias table, Fenwick tree) is a different corpus.
package synth

import (
	"fmt"
	"math"
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// Config controls corpus generation.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Scale multiplies every region's Table 1 recipe count; 1.0
	// regenerates the full 45,772-recipe corpus, smaller values produce
	// proportionally smaller corpora for tests.
	Scale float64
	// MeanSize is the target mean recipe size (the paper observes ≈ 9).
	MeanSize float64
	// MinSize and MaxSize bound recipe sizes.
	MinSize, MaxSize int
	// CopyProb is the probability a new recipe is a copy-mutate of an
	// existing recipe rather than a fresh composition.
	CopyProb float64
	// MutationRate is the fraction of a copied recipe's slots that are
	// re-drawn.
	MutationRate float64
	// Candidates is the number of candidate ingredients scored per slot.
	Candidates int
	// AffinityScale multiplies each region's pairing bias β.
	AffinityScale float64
	// ExploreProb is the probability that a candidate is drawn uniformly
	// from the pool instead of by usage, keeping tail ingredients in
	// circulation so regional unique-ingredient counts stay near their
	// Table 1 targets.
	ExploreProb float64
	// IncludeMinorRegions adds the four aggregate-only regions
	// (Portugal, Belgium, Central America, Netherlands).
	IncludeMinorRegions bool
}

// DefaultConfig returns the full-corpus calibration.
func DefaultConfig() Config {
	return Config{
		Seed:                20180416,
		Scale:               1.0,
		MeanSize:            9,
		MinSize:             3,
		MaxSize:             28,
		CopyProb:            0.8,
		MutationRate:        0.3,
		Candidates:          16,
		AffinityScale:       0.5,
		ExploreProb:         0.15,
		IncludeMinorRegions: true,
	}
}

// TestConfig returns a reduced corpus (12% scale) for fast tests.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.12
	return cfg
}

func (cfg Config) validate() error {
	switch {
	case cfg.Scale <= 0 || cfg.Scale > 4:
		return fmt.Errorf("synth: Scale %g outside (0,4]", cfg.Scale)
	case cfg.MinSize < 2 || cfg.MaxSize < cfg.MinSize:
		return fmt.Errorf("synth: size bounds [%d,%d] invalid", cfg.MinSize, cfg.MaxSize)
	case cfg.MeanSize < float64(cfg.MinSize) || cfg.MeanSize > float64(cfg.MaxSize):
		return fmt.Errorf("synth: MeanSize %g outside bounds", cfg.MeanSize)
	case cfg.CopyProb < 0 || cfg.CopyProb > 1:
		return fmt.Errorf("synth: CopyProb %g outside [0,1]", cfg.CopyProb)
	case cfg.MutationRate <= 0 || cfg.MutationRate > 1:
		return fmt.Errorf("synth: MutationRate %g outside (0,1]", cfg.MutationRate)
	case cfg.Candidates < 2:
		return fmt.Errorf("synth: Candidates %d too small", cfg.Candidates)
	case cfg.ExploreProb < 0 || cfg.ExploreProb > 1:
		return fmt.Errorf("synth: ExploreProb %g outside [0,1]", cfg.ExploreProb)
	}
	return nil
}

// Generate builds a complete synthetic corpus over the catalog. The
// supplied analyzer provides the precomputed shared-compound matrix; the
// generator's affinity bias uses the same statistic as the downstream
// pairing analysis, which is exactly the paper's premise (recipes
// evolved under flavor-affinity pressure).
func Generate(analyzer *pairing.Analyzer, cfg Config) (*recipedb.Store, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	master := rng.New(cfg.Seed)
	regions := recipedb.MajorRegions()
	if cfg.IncludeMinorRegions {
		regions = recipedb.AllRegions()
	}
	// Workers take regions largest first, so the longest is not started
	// last; results are indexed by Region, which counts up from 0.
	byCost := append([]recipedb.Region(nil), regions...)
	sort.SliceStable(byCost, func(a, b int) bool { return byCost[a].PaperRecipeCount() > byCost[b].PaperRecipeCount() })
	recs := make([][]recipedb.Recipe, recipedb.NumAllRegions)
	errs := make([]error, recipedb.NumAllRegions)
	pairing.ForEachTask(len(byCost), func(k int) {
		r := byCost[k]
		// Split on the worker, so no two hot rng.Sources share a cache line.
		recs[r], errs[r] = generateCalibratedRegion(analyzer, r, cfg, master.Split(uint64(r)+1))
	})
	store := recipedb.NewStore(analyzer.Catalog())
	for _, region := range regions {
		err := errs[region]
		if err == nil {
			_, err = store.Load(recs[region])
		}
		if err != nil {
			return nil, fmt.Errorf("synth: region %s: %w", region.Code(), err)
		}
	}
	return store, nil
}

// calibration constants for generateCalibratedRegion.
const (
	// calibrationAttempts bounds the regenerate-with-stronger-β loop.
	calibrationAttempts = 6
	// calibrationNullDraws is the Random-control sample used to check a
	// candidate region's pairing direction during generation.
	calibrationNullDraws = 4000
	// calibrationMinZ is the minimum |Z| accepted for major regions; the
	// paper reports every cuisine as significantly non-random.
	calibrationMinZ = 5.0
)

// generateCalibratedRegion generates a region and verifies that its
// food-pairing deviation from the Random control has the direction the
// paper reports (Fig 4). Popularity dynamics can push a weakly biased
// cuisine the wrong way, especially in small corpora; when that happens
// the region is regenerated with a stronger flavor-affinity bias. The
// loop is deterministic: attempt k uses the seed stream Split(k).
func generateCalibratedRegion(analyzer *pairing.Analyzer, region recipedb.Region, cfg Config, src *rng.Source) ([]recipedb.Recipe, error) {
	target := int(math.Round(float64(region.PaperRecipeCount()) * cfg.Scale))
	if target < 4 {
		target = 4
	}
	wantSign := region.PairingSign()
	scale := cfg.AffinityScale
	for attempt := 0; attempt < calibrationAttempts; attempt++ {
		st := newRegionState(analyzer, region, cfg, src.Split(uint64(attempt)), region.PairingBias()*scale)
		recs := st.evolve(target)
		if wantSign == 0 {
			return recs, nil
		}
		trial := recipedb.NewStore(analyzer.Catalog())
		if _, err := trial.Load(recs); err != nil {
			return nil, err
		}
		cuisine := trial.BuildCuisine(region)
		res, err := pairing.Compare(analyzer, trial, cuisine, pairing.RandomModel,
			calibrationNullDraws, src.Split(1000+uint64(attempt)))
		if err != nil {
			return nil, err
		}
		if (wantSign > 0 && res.Z >= calibrationMinZ) || (wantSign < 0 && res.Z <= -calibrationMinZ) {
			return recs, nil
		}
		scale *= 1.7
	}
	return nil, fmt.Errorf("synth: region %s failed pairing-direction calibration after %d attempts",
		region.Code(), calibrationAttempts)
}

// cand is one candidate ingredient of a slot and its softmax weight.
type cand struct {
	id flavor.ID
	w  float64
}

// regionState carries the evolving cuisine during generation, and the
// selection kernel's scratch so that a draw allocates nothing.
type regionState struct {
	analyzer *pairing.Analyzer
	cfg      Config
	region   recipedb.Region
	src      *rng.Source
	pool     []flavor.ID
	poolIdx  []int     // catalog ID → index in pool, for pool members
	usage    []float64 // usage[i] = 1 + times pool[i] has been used
	catw     []float64 // per-pool-member category fitness multiplier
	weight   []float64 // weight[i] = usage[i] * catw[i]
	// standardization constants for shared-compound counts in the pool
	shareMean, shareStd float64
	recipes             [][]flavor.ID
	beta                float64
	usageMax            float64     // max of weight
	member              []bool      // by catalog ID: in the recipe being drawn
	cands               []cand      // one slot's candidates
	rest                []flavor.ID // a copied recipe minus the slot being redrawn
}

// newRegionState draws the region's pool and share statistics from src;
// beta is the flavor-affinity bias the selection kernel applies.
func newRegionState(analyzer *pairing.Analyzer, region recipedb.Region, cfg Config, src *rng.Source, beta float64) *regionState {
	st := &regionState{
		analyzer: analyzer,
		cfg:      cfg,
		region:   region,
		src:      src,
		beta:     beta,
		member:   make([]bool, analyzer.Catalog().Len()),
		cands:    make([]cand, 0, cfg.Candidates),
		rest:     make([]flavor.ID, 0, cfg.MaxSize),
	}
	st.buildPool()
	st.calibrateShares()
	return st
}

// evolve grows the cuisine to n recipes, each a copy-mutate of an
// earlier one or a fresh composition, then names them and assigns their
// sources. The recipes come back in generation order with ID -1, so
// Store.Load gives each the next free slot.
func (st *regionState) evolve(n int) []recipedb.Recipe {
	for len(st.recipes) < n {
		var recipe []flavor.ID
		if len(st.recipes) > 8 && st.src.Float64() < st.cfg.CopyProb {
			recipe = st.copyMutate()
		} else {
			recipe = st.freshRecipe()
		}
		st.recipes = append(st.recipes, recipe)
		for _, id := range recipe {
			i := st.poolIdx[id]
			st.usage[i]++
			st.weight[i] = st.usage[i] * st.catw[i]
			if st.weight[i] > st.usageMax {
				st.usageMax = st.weight[i]
			}
		}
	}
	recs := make([]recipedb.Recipe, len(st.recipes))
	for i, recipe := range st.recipes {
		name := st.recipeName(recipe, i)
		source := st.pickSource()
		recs[i] = recipedb.Recipe{ID: -1, Name: name, Region: st.region, Source: source, Ingredients: recipe}
	}
	return recs
}

// buildPool selects the region's ingredient pool with category-weighted
// sampling sized to the Table 1 unique-ingredient count.
func (st *regionState) buildPool() {
	catalog := st.analyzer.Catalog()
	targetSize := st.region.PaperIngredientCount()
	if targetSize > catalog.Len() {
		targetSize = catalog.Len()
	}
	if targetSize < 20 {
		targetSize = 20
	}
	weights := make([]float64, catalog.Len())
	for i := 0; i < catalog.Len(); i++ {
		ing := catalog.Ingredient(flavor.ID(i))
		weights[i] = CategoryWeight(st.region, ing.Category)
	}
	w, err := rng.NewWeighted(weights)
	if err != nil {
		panic("synth: category weights degenerate: " + err.Error())
	}
	chosen := w.SampleDistinct(st.src, targetSize)
	st.pool = make([]flavor.ID, len(chosen))
	st.poolIdx = make([]int, catalog.Len())
	st.usage = make([]float64, len(chosen))
	st.catw = make([]float64, len(chosen))
	st.weight = make([]float64, len(chosen))
	st.usageMax = 0
	for i, idx := range chosen {
		st.pool[i] = flavor.ID(idx)
		st.poolIdx[idx] = i
		st.usage[i] = 1 // Laplace prior so every pool member is reachable
		// Category fitness shapes usage incidence (Fig 2): slots prefer
		// members of regionally favored categories, and preferential
		// attachment compounds the advantage.
		cw := CategoryWeight(st.region, catalog.Ingredient(flavor.ID(idx)).Category)
		st.catw[i] = cw * cw // squared to sharpen regional signatures
		st.weight[i] = st.catw[i]
		if st.weight[i] > st.usageMax {
			st.usageMax = st.weight[i]
		}
	}
}

// calibrateShares estimates the mean and standard deviation of pairwise
// shared-compound counts within the pool, used to standardize affinity.
func (st *regionState) calibrateShares() {
	const samples = 2000
	var sum, sumsq float64
	n := 0
	for i := 0; i < samples; i++ {
		a := st.pool[st.src.Intn(len(st.pool))]
		b := st.pool[st.src.Intn(len(st.pool))]
		if a == b {
			continue
		}
		s := float64(st.analyzer.Shared(a, b))
		sum += s
		sumsq += s * s
		n++
	}
	if n < 2 {
		st.shareMean, st.shareStd = 0, 1
		return
	}
	st.shareMean = sum / float64(n)
	variance := sumsq/float64(n) - st.shareMean*st.shareMean
	if variance <= 0 {
		st.shareStd = 1
	} else {
		st.shareStd = math.Sqrt(variance)
	}
}

// sampleSize draws a recipe size: MinSize + Poisson(MeanSize - MinSize),
// clamped above.
func (st *regionState) sampleSize() int {
	sz := st.cfg.MinSize + st.src.Poisson(st.cfg.MeanSize-float64(st.cfg.MinSize))
	if sz > st.cfg.MaxSize {
		sz = st.cfg.MaxSize
	}
	if sz > len(st.pool) {
		sz = len(st.pool)
	}
	return sz
}

// freshRecipe composes a recipe slot by slot with affinity-biased
// preferential attachment.
func (st *regionState) freshRecipe() []flavor.ID {
	size := st.sampleSize()
	recipe := make([]flavor.ID, 0, size)
	for len(recipe) < size {
		id := st.selectIngredient(recipe)
		recipe = append(recipe, id)
		st.member[id] = true
	}
	for _, id := range recipe {
		st.member[id] = false
	}
	return recipe
}

// copyMutate copies a uniformly chosen existing recipe and re-draws a
// MutationRate fraction of its slots (at least one).
func (st *regionState) copyMutate() []flavor.ID {
	tmpl := st.recipes[st.src.Intn(len(st.recipes))]
	recipe := append([]flavor.ID(nil), tmpl...)
	for _, id := range recipe {
		st.member[id] = true
	}
	mutations := int(math.Ceil(st.cfg.MutationRate * float64(len(recipe))))
	for m := 0; m < mutations; m++ {
		slot := st.src.Intn(len(recipe))
		st.member[recipe[slot]] = false
		// Remove the slot from the affinity context, then redraw.
		st.rest = append(append(st.rest[:0], recipe[:slot]...), recipe[slot+1:]...)
		id := st.selectIngredient(st.rest)
		recipe[slot] = id
		st.member[id] = true
	}
	for _, id := range recipe {
		st.member[id] = false
	}
	return recipe
}

// selectIngredient draws Candidates pool members not yet in the recipe
// (st.member) with probability proportional to usage (preferential
// attachment), scores each by the standardized mean shared-compound
// count against the partial recipe, and picks via softmax with inverse
// temperature β. With β = 0 this reduces to pure preferential
// attachment; β > 0 favors flavor-similar candidates (uniform pairing),
// β < 0 flavor-dissimilar (contrasting).
func (st *regionState) selectIngredient(partial []flavor.ID) flavor.ID {
	cands := st.cands[:0]
	attempts := 0
	for len(cands) < st.cfg.Candidates && attempts < st.cfg.Candidates*20 {
		attempts++
		var idx int
		if st.src.Float64() < st.cfg.ExploreProb {
			idx = st.src.Intn(len(st.pool))
		} else {
			idx = st.sampleByUsage()
		}
		id := st.pool[idx]
		if st.member[id] {
			continue
		}
		cands = append(cands, cand{id: id})
	}
	st.cands = cands
	if len(cands) == 0 {
		// Pool nearly exhausted by this recipe: linear scan.
		for _, id := range st.pool {
			if !st.member[id] {
				return id
			}
		}
		panic("synth: recipe exhausted the ingredient pool")
	}
	if len(partial) == 0 || st.beta == 0 {
		return cands[st.src.Intn(len(cands))].id
	}
	// Softmax over standardized affinity.
	var maxW float64 = math.Inf(-1)
	for i := range cands {
		var total float64
		for _, other := range partial {
			total += float64(st.analyzer.Shared(cands[i].id, other))
		}
		mean := total / float64(len(partial))
		std := (mean - st.shareMean) / st.shareStd
		// Clamp so a single extreme pair cannot dominate the softmax.
		if std > 3 {
			std = 3
		} else if std < -3 {
			std = -3
		}
		cands[i].w = st.beta * std
		if cands[i].w > maxW {
			maxW = cands[i].w
		}
	}
	var z float64
	for i := range cands {
		cands[i].w = math.Exp(cands[i].w - maxW)
		z += cands[i].w
	}
	r := st.src.Float64() * z
	for i := range cands {
		r -= cands[i].w
		if r <= 0 {
			return cands[i].id
		}
	}
	return cands[len(cands)-1].id
}

// sampleByUsage draws a pool index proportionally to usage × category
// fitness by rejection against the incrementally maintained maximum
// (weights change every recipe, so an alias table would need constant
// rebuilding — and would consume the stream differently).
func (st *regionState) sampleByUsage() int {
	for {
		i := st.src.Intn(len(st.weight))
		if st.src.Float64()*st.usageMax <= st.weight[i] {
			return i
		}
	}
}

// dishWords provides recipe-name suffixes.
var dishWords = []string{
	"stew", "soup", "salad", "curry", "roast", "bake", "pie",
	"casserole", "stir fry", "braise", "gratin", "skillet", "bowl",
	"tart", "fritter", "dumpling", "chowder", "ragout", "medley",
}

// recipeName synthesizes a display name from the recipe's first
// ingredients.
func (st *regionState) recipeName(recipe []flavor.ID, idx int) string {
	catalog := st.analyzer.Catalog()
	a := catalog.Ingredient(recipe[0]).Name
	b := ""
	if len(recipe) > 1 {
		b = catalog.Ingredient(recipe[1]).Name + " "
	}
	dish := dishWords[st.src.Intn(len(dishWords))]
	return fmt.Sprintf("%s %s%s #%d", a, b, dish, idx)
}

// pickSource assigns a provenance site. TarlaDalal (an Indian recipe
// site) dominates the Indian Subcontinent; other regions mix the three
// general sites with the paper's overall proportions.
func (st *regionState) pickSource() recipedb.Source {
	if st.region == recipedb.IndianSubcontinent && st.src.Float64() < 0.64 {
		return recipedb.TarlaDalal
	}
	r := st.src.Float64()
	switch {
	case r < 0.375:
		return recipedb.AllRecipes
	case r < 0.745:
		return recipedb.FoodNetwork
	default:
		return recipedb.Epicurious
	}
}

// SingleRegionConfig parameterizes GenerateSingleRegion.
type SingleRegionConfig struct {
	// Seed drives all randomness.
	Seed uint64
	// Recipes is the number of recipes to generate.
	Recipes int
	// Beta is the raw flavor-affinity bias (no region calibration): the
	// independent variable of the evolution-model sweep.
	Beta float64
}

// GenerateSingleRegion generates one uncalibrated cuisine with an
// explicit flavor-affinity bias β, used by the copy-mutate evolution
// sweep (Ext-3) to show that β spans the uniform-to-contrasting pairing
// spectrum. The region parameter supplies the ingredient pool's size and
// category preferences only; its paper pairing sign is ignored.
func GenerateSingleRegion(analyzer *pairing.Analyzer, region recipedb.Region, cfg SingleRegionConfig) (*recipedb.Store, error) {
	if cfg.Recipes < 4 {
		return nil, fmt.Errorf("synth: Recipes %d too small", cfg.Recipes)
	}
	st := newRegionState(analyzer, region, DefaultConfig(), rng.New(cfg.Seed).Split(uint64(region)+1), cfg.Beta)
	store := recipedb.NewStore(analyzer.Catalog())
	if _, err := store.Load(st.evolve(cfg.Recipes)); err != nil {
		return nil, err
	}
	return store, nil
}
