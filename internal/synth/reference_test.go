package synth

// The serial generator as it stood before regions were drawn in
// parallel, kept verbatim (renamed ref*) as the reference the parallel
// generator and its allocation-free kernel must reproduce bit for bit:
// one region after another on the caller's goroutine, each region
// Add-ed into a trial store and then copied recipe by recipe into the
// corpus, a map-based member set and fresh candidate/rest slices on
// every draw. The only addition is refGenerate's attempt count, which
// lets a test prove it exercised the calibration retry loop.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// refGenerate is the serial Generate. maxAttempts is the largest number
// of calibration attempts any region took.
func refGenerate(analyzer *pairing.Analyzer, cfg Config) (store *recipedb.Store, maxAttempts int, err error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	catalog := analyzer.Catalog()
	store = recipedb.NewStore(catalog)
	master := rng.New(cfg.Seed)

	regions := recipedb.MajorRegions()
	if cfg.IncludeMinorRegions {
		regions = recipedb.AllRegions()
	}
	for _, region := range regions {
		attempts := 0
		if err := refGenerateCalibratedRegion(analyzer, store, region, cfg, master.Split(uint64(region)+1), &attempts); err != nil {
			return nil, 0, fmt.Errorf("synth: region %s: %w", region.Code(), err)
		}
		if attempts > maxAttempts {
			maxAttempts = attempts
		}
	}
	return store, maxAttempts, nil
}

func refGenerateCalibratedRegion(analyzer *pairing.Analyzer, store *recipedb.Store, region recipedb.Region, cfg Config, src *rng.Source, attempts *int) error {
	wantSign := region.PairingSign()
	scale := cfg.AffinityScale
	for attempt := 0; attempt < calibrationAttempts; attempt++ {
		*attempts = attempt + 1
		attemptCfg := cfg
		attemptCfg.AffinityScale = scale
		trial := recipedb.NewStore(analyzer.Catalog())
		if err := refGenerateRegion(analyzer, trial, region, attemptCfg, src.Split(uint64(attempt))); err != nil {
			return err
		}
		if wantSign == 0 {
			return refCopyRegion(trial, store, region)
		}
		cuisine := trial.BuildCuisine(region)
		res, err := pairing.Compare(analyzer, trial, cuisine, pairing.RandomModel,
			calibrationNullDraws, src.Split(1000+uint64(attempt)))
		if err != nil {
			return err
		}
		if (wantSign > 0 && res.Z >= calibrationMinZ) || (wantSign < 0 && res.Z <= -calibrationMinZ) {
			return refCopyRegion(trial, store, region)
		}
		scale *= 1.7
	}
	return fmt.Errorf("synth: region %s failed pairing-direction calibration after %d attempts",
		region.Code(), calibrationAttempts)
}

func refCopyRegion(from, to *recipedb.Store, region recipedb.Region) error {
	for id := range from.Slots() {
		r := from.Recipe(id)
		if r.Deleted || r.Region != region {
			continue
		}
		if _, err := to.Add(r.Name, r.Region, r.Source, r.Ingredients); err != nil {
			return err
		}
	}
	return nil
}

type refRegionState struct {
	analyzer *pairing.Analyzer
	cfg      Config
	region   recipedb.Region
	src      *rng.Source
	pool     []flavor.ID
	poolIdx  map[flavor.ID]int
	usage    []float64 // usage[i] = 1 + times pool[i] has been used
	catw     []float64 // per-pool-member category fitness multiplier
	// standardization constants for shared-compound counts in the pool
	shareMean, shareStd float64
	recipes             [][]flavor.ID
	beta                float64
	usageMax            float64
}

func refGenerateRegion(analyzer *pairing.Analyzer, store *recipedb.Store, region recipedb.Region, cfg Config, src *rng.Source) error {
	target := int(math.Round(float64(region.PaperRecipeCount()) * cfg.Scale))
	if target < 4 {
		target = 4
	}
	st := &refRegionState{
		analyzer: analyzer,
		cfg:      cfg,
		region:   region,
		src:      src,
		beta:     region.PairingBias() * cfg.AffinityScale,
	}
	st.buildPool()
	st.calibrateShares()

	for len(st.recipes) < target {
		var recipe []flavor.ID
		if len(st.recipes) > 8 && src.Float64() < cfg.CopyProb {
			recipe = st.copyMutate()
		} else {
			recipe = st.freshRecipe()
		}
		st.recipes = append(st.recipes, recipe)
		for _, id := range recipe {
			i := st.poolIdx[id]
			st.usage[i]++
			if w := st.usage[i] * st.catw[i]; w > st.usageMax {
				st.usageMax = w
			}
		}
	}

	for i, recipe := range st.recipes {
		name := st.recipeName(recipe, i)
		source := st.pickSource()
		if _, err := store.Add(name, region, source, recipe); err != nil {
			return err
		}
	}
	return nil
}

func (st *refRegionState) buildPool() {
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
	st.poolIdx = make(map[flavor.ID]int, len(chosen))
	st.usage = make([]float64, len(chosen))
	st.catw = make([]float64, len(chosen))
	st.usageMax = 0
	for i, idx := range chosen {
		st.pool[i] = flavor.ID(idx)
		st.poolIdx[flavor.ID(idx)] = i
		st.usage[i] = 1 // Laplace prior so every pool member is reachable
		cw := CategoryWeight(st.region, catalog.Ingredient(flavor.ID(idx)).Category)
		st.catw[i] = cw * cw // squared to sharpen regional signatures
		if st.catw[i] > st.usageMax {
			st.usageMax = st.catw[i]
		}
	}
}

func (st *refRegionState) calibrateShares() {
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

func (st *refRegionState) sampleSize() int {
	sz := st.cfg.MinSize + st.src.Poisson(st.cfg.MeanSize-float64(st.cfg.MinSize))
	if sz > st.cfg.MaxSize {
		sz = st.cfg.MaxSize
	}
	if sz > len(st.pool) {
		sz = len(st.pool)
	}
	return sz
}

func (st *refRegionState) freshRecipe() []flavor.ID {
	size := st.sampleSize()
	recipe := make([]flavor.ID, 0, size)
	member := make(map[flavor.ID]struct{}, size)
	for len(recipe) < size {
		id := st.selectIngredient(recipe, member)
		recipe = append(recipe, id)
		member[id] = struct{}{}
	}
	return recipe
}

func (st *refRegionState) copyMutate() []flavor.ID {
	tmpl := st.recipes[st.src.Intn(len(st.recipes))]
	recipe := append([]flavor.ID(nil), tmpl...)
	member := make(map[flavor.ID]struct{}, len(recipe))
	for _, id := range recipe {
		member[id] = struct{}{}
	}
	mutations := int(math.Ceil(st.cfg.MutationRate * float64(len(recipe))))
	for m := 0; m < mutations; m++ {
		slot := st.src.Intn(len(recipe))
		old := recipe[slot]
		delete(member, old)
		rest := make([]flavor.ID, 0, len(recipe)-1)
		for i, id := range recipe {
			if i != slot {
				rest = append(rest, id)
			}
		}
		id := st.selectIngredient(rest, member)
		recipe[slot] = id
		member[id] = struct{}{}
	}
	return recipe
}

func (st *refRegionState) selectIngredient(partial []flavor.ID, member map[flavor.ID]struct{}) flavor.ID {
	type cand struct {
		id flavor.ID
		w  float64
	}
	cands := make([]cand, 0, st.cfg.Candidates)
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
		if _, dup := member[id]; dup {
			continue
		}
		cands = append(cands, cand{id: id})
	}
	if len(cands) == 0 {
		for _, id := range st.pool {
			if _, dup := member[id]; !dup {
				return id
			}
		}
		panic("synth: recipe exhausted the ingredient pool")
	}
	if len(partial) == 0 || st.beta == 0 {
		return cands[st.src.Intn(len(cands))].id
	}
	var maxW float64 = math.Inf(-1)
	for i := range cands {
		var total float64
		for _, other := range partial {
			total += float64(st.analyzer.Shared(cands[i].id, other))
		}
		mean := total / float64(len(partial))
		std := (mean - st.shareMean) / st.shareStd
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

func (st *refRegionState) sampleByUsage() int {
	for {
		i := st.src.Intn(len(st.usage))
		if st.src.Float64()*st.usageMax <= st.usage[i]*st.catw[i] {
			return i
		}
	}
}

func (st *refRegionState) recipeName(recipe []flavor.ID, idx int) string {
	catalog := st.analyzer.Catalog()
	a := catalog.Ingredient(recipe[0]).Name
	b := ""
	if len(recipe) > 1 {
		b = catalog.Ingredient(recipe[1]).Name + " "
	}
	dish := dishWords[st.src.Intn(len(dishWords))]
	return fmt.Sprintf("%s %s%s #%d", a, b, dish, idx)
}

func (st *refRegionState) pickSource() recipedb.Source {
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

func refGenerateSingleRegion(analyzer *pairing.Analyzer, region recipedb.Region, cfg SingleRegionConfig) (*recipedb.Store, error) {
	if cfg.Recipes < 4 {
		return nil, fmt.Errorf("synth: Recipes %d too small", cfg.Recipes)
	}
	base := DefaultConfig()
	base.Seed = cfg.Seed
	store := recipedb.NewStore(analyzer.Catalog())
	src := rng.New(cfg.Seed).Split(uint64(region) + 1)
	st := &refRegionState{
		analyzer: analyzer,
		cfg:      base,
		region:   region,
		src:      src,
		beta:     cfg.Beta,
	}
	st.buildPool()
	st.calibrateShares()
	for len(st.recipes) < cfg.Recipes {
		var recipe []flavor.ID
		if len(st.recipes) > 8 && src.Float64() < base.CopyProb {
			recipe = st.copyMutate()
		} else {
			recipe = st.freshRecipe()
		}
		st.recipes = append(st.recipes, recipe)
		for _, id := range recipe {
			i := st.poolIdx[id]
			st.usage[i]++
			if w := st.usage[i] * st.catw[i]; w > st.usageMax {
				st.usageMax = w
			}
		}
	}
	for i, recipe := range st.recipes {
		if _, err := store.Add(st.recipeName(recipe, i), region, st.pickSource(), recipe); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// sameStore fails the test unless the two stores hold the same corpus:
// CanonicalDump (slots, content, posting lists, version), Version and
// Slots.
func sameStore(t *testing.T, what string, got, want *recipedb.Store) {
	t.Helper()
	if got.Version() != want.Version() || got.Slots() != want.Slots() {
		t.Fatalf("%s: version %d slots %d, reference version %d slots %d",
			what, got.Version(), got.Slots(), want.Version(), want.Slots())
	}
	if got.CanonicalDump() != want.CanonicalDump() {
		t.Fatalf("%s: CanonicalDump differs from the reference", what)
	}
}

// TestGenerateMatchesReference holds Generate to the serial reference
// over seeds, scales, the minor-region toggle, a calibration that has to
// retry, and one that fails — on one CPU and on several.
func TestGenerateMatchesReference(t *testing.T) {
	type tc struct {
		name  string
		cfg   Config
		retry bool // some region must need a second calibration attempt
	}
	var cases []tc
	for seed := uint64(1); seed <= 4; seed++ {
		for _, scale := range []float64{0.01, 0.05, 0.12} {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Scale = seed, scale
			cases = append(cases, tc{name: fmt.Sprintf("seed%d/scale%g", seed, scale), cfg: cfg})
		}
	}
	majors := TestConfig()
	majors.IncludeMinorRegions = false
	cases = append(cases, tc{name: "majorsOnly", cfg: majors})
	weak := DefaultConfig()
	weak.Scale, weak.AffinityScale = 0.05, 0.1
	cases = append(cases, tc{name: "weakAffinity", cfg: weak, retry: true})

	for _, c := range cases {
		want, attempts, err := refGenerate(testAnalyzer, c.cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if c.retry && attempts < 2 {
			t.Fatalf("%s: every region calibrated on its first attempt; the retry loop went untested", c.name)
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			got, err := Generate(testAnalyzer, c.cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s procs%d: %v", c.name, procs, err)
			}
			sameStore(t, fmt.Sprintf("%s procs%d", c.name, procs), got, want)
		}
	}
}

// TestGenerateCalibrationFailureMatchesReference: a bias pointing every
// signed region the wrong way fails calibration, and the error reported
// is the first failing region's in region order, word for word.
func TestGenerateCalibrationFailureMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale, cfg.AffinityScale = 0.01, -0.5
	_, _, want := refGenerate(testAnalyzer, cfg)
	if want == nil {
		t.Fatal("reference: an inverted bias calibrated")
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		store, got := Generate(testAnalyzer, cfg)
		runtime.GOMAXPROCS(prev)
		if store != nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("procs%d: Generate = %v, %v; reference error %q", procs, store, got, want)
		}
	}
}

// TestGenerateSingleRegionMatchesReference holds the uncalibrated
// evolution-sweep generator to its reference over a (seed, β) grid that
// includes pure preferential attachment (β = 0) and contrasting bias.
func TestGenerateSingleRegionMatchesReference(t *testing.T) {
	for _, region := range []recipedb.Region{recipedb.Greece, recipedb.IndianSubcontinent} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, beta := range []float64{-2, -0.5, 0, 0.5, 2} {
				cfg := SingleRegionConfig{Seed: seed, Recipes: 150, Beta: beta}
				want, err := refGenerateSingleRegion(testAnalyzer, region, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := GenerateSingleRegion(testAnalyzer, region, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameStore(t, fmt.Sprintf("%s seed%d beta%g", region.Code(), seed, beta), got, want)
			}
		}
	}
}
