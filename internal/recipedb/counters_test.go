package recipedb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/stats"
)

// walkedCuisine is the Cuisine that BuildCuisine built by walking the
// region's recipes before it copied the counters, kept with its walk,
// SizeHistogram and TopIngredients verbatim as the reference the
// counter-built Cuisine and RegionStats are held to.
type walkedCuisine struct {
	Region Region
	// RecipeIDs indexes into the parent store.
	RecipeIDs []int
	// Sizes[i] is the ingredient count of recipe RecipeIDs[i].
	Sizes []int
	// IngredientFreq maps each used ingredient to its recipe count.
	IngredientFreq map[flavor.ID]int
	// UniqueIngredients is the sorted set of ingredients used.
	UniqueIngredients []flavor.ID
}

// walkRegionLocked calls fn for every live recipe of r (every live
// recipe for World) in slot order. It reads the slots' Deleted flags,
// not the store's region lists: the definition those lists must agree
// with. Callers hold s.mu.
func walkRegionLocked(s *Store, r Region, fn func(*Recipe)) {
	for i := range s.recipes {
		if rec := &s.recipes[i]; !rec.Deleted && (r == World || rec.Region == r) {
			fn(rec)
		}
	}
}

func walkCuisine(s *Store, r Region) *walkedCuisine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &walkedCuisine{
		Region:         r,
		IngredientFreq: make(map[flavor.ID]int),
	}
	walkRegionLocked(s, r, func(rec *Recipe) {
		c.RecipeIDs = append(c.RecipeIDs, rec.ID)
		c.Sizes = append(c.Sizes, rec.Size())
		for _, id := range rec.Ingredients {
			c.IngredientFreq[id]++
		}
	})
	c.UniqueIngredients = make([]flavor.ID, 0, len(c.IngredientFreq))
	for id := range c.IngredientFreq {
		c.UniqueIngredients = append(c.UniqueIngredients, id)
	}
	sort.Slice(c.UniqueIngredients, func(i, j int) bool {
		return c.UniqueIngredients[i] < c.UniqueIngredients[j]
	})
	return c
}

func (c *walkedCuisine) SizeHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for _, sz := range c.Sizes {
		h.Add(sz, 1)
	}
	return h
}

func (c *walkedCuisine) TopIngredients(k int) []flavor.ID {
	ids := append([]flavor.ID(nil), c.UniqueIngredients...)
	sort.Slice(ids, func(i, j int) bool {
		fi, fj := c.IngredientFreq[ids[i]], c.IngredientFreq[ids[j]]
		if fi != fj {
			return fi > fj
		}
		return ids[i] < ids[j]
	})
	if k > len(ids) {
		k = len(ids)
	}
	return ids[:k]
}

// regionStatsReference is the recipe walk the counters replaced: the
// walked Cuisine for the counts, SizeHistogram().Mean() and
// TopIngredients, and CategoryUsage's loop over every ingredient slot.
func regionStatsReference(s *Store, r Region, k int) RegionStats {
	c := walkCuisine(s, r)
	counts := make([]int, flavor.NumCategories)
	total := 0
	s.Read(func(*View) {
		walkRegionLocked(s, r, func(rec *Recipe) {
			for _, id := range rec.Ingredients {
				counts[s.catalog.Ingredient(id).Category]++
				total++
			}
		})
	})
	usage := make([]float64, flavor.NumCategories)
	if total > 0 {
		for i, n := range counts {
			usage[i] = float64(n) / float64(total)
		}
	}
	return RegionStats{
		Recipes:       len(c.RecipeIDs),
		Ingredients:   len(c.UniqueIngredients),
		MeanSize:      c.SizeHistogram().Mean(),
		Top:           c.TopIngredients(k),
		CategoryUsage: usage,
	}
}

// sameBits reports whether two float slices hold the same bits.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// statsDiff names the first field where got and want differ, floats
// compared by their bits; "" when they are equal.
func statsDiff(got, want RegionStats) string {
	switch {
	case got.Recipes != want.Recipes:
		return fmt.Sprintf("recipes %d, walk %d", got.Recipes, want.Recipes)
	case got.Ingredients != want.Ingredients:
		return fmt.Sprintf("ingredients %d, walk %d", got.Ingredients, want.Ingredients)
	case math.Float64bits(got.MeanSize) != math.Float64bits(want.MeanSize):
		return fmt.Sprintf("mean size %v, walk %v", got.MeanSize, want.MeanSize)
	case !slices.Equal(got.Top, want.Top):
		return fmt.Sprintf("top %v, walk %v", got.Top, want.Top)
	case !sameBits(got.CategoryUsage, want.CategoryUsage):
		return fmt.Sprintf("category usage %v, walk %v", got.CategoryUsage, want.CategoryUsage)
	}
	return ""
}

// checkCounters compares every region's counters, World's included,
// with the walk: RegionStats with a short and with an unbounded top
// list, CategoryUsage and View.RegionIngredients. An empty region must
// read as empty in every field.
func checkCounters(t *testing.T, s *Store, step string) {
	t.Helper()
	for r := Region(0); r < numRegions; r++ {
		for _, k := range []int{10, s.catalog.Len()} {
			want := regionStatsReference(s, r, k)
			if d := statsDiff(s.RegionStats(r, k), want); d != "" {
				t.Fatalf("%s: %s (k=%d): %s", step, r.Code(), k, d)
			}
			if got := s.CategoryUsage(r); !sameBits(got, want.CategoryUsage) {
				t.Fatalf("%s: %s: CategoryUsage %v, walk %v", step, r.Code(), got, want.CategoryUsage)
			}
		}
		st := s.RegionStats(r, 10)
		var distinct int
		s.Read(func(v *View) { distinct = v.RegionIngredients(r) })
		if distinct != st.Ingredients {
			t.Fatalf("%s: %s: View.RegionIngredients %d, RegionStats %d", step, r.Code(), distinct, st.Ingredients)
		}
		if st.Recipes == 0 && (st.Ingredients != 0 || st.MeanSize != 0 || len(st.Top) != 0 ||
			slices.ContainsFunc(st.CategoryUsage, func(u float64) bool { return u != 0 })) {
			t.Fatalf("%s: empty %s reads %+v", step, r.Code(), st)
		}
	}
}

// TestRegionCountersMatchRecipeWalk is the counters' equivalence
// battery: after every step of regionWriteScript, every region's
// statistics must equal the walk's bit for bit.
func TestRegionCountersMatchRecipeWalk(t *testing.T) {
	regionWriteScript(t, func(s *Store, step string) { checkCounters(t, s, step) })
}

// regionWriteScript runs a seeded script of inserts, same- and
// cross-region replacements, deletes, tombstone revivals, ApplyBatch
// groups with mixed outcomes, Loads and SyncSlots on a fresh store per
// seed, calling check after every step. The script draws from a small
// ingredient pool over every region, so use counts tie, regions empty
// out and fill again, and a replacement often shares ingredients with
// the recipe it displaces.
func regionWriteScript(t *testing.T, check func(s *Store, step string)) {
	const (
		steps = 250
		pool  = 24
	)
	regions := AllRegions()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(testCatalog)
		randRegion := func() Region { return regions[rng.Intn(len(regions))] }
		randIngredients := func() []flavor.ID {
			perm := rng.Perm(pool)[:2+rng.Intn(6)]
			out := make([]flavor.ID, len(perm))
			for i, p := range perm {
				out[i] = flavor.ID(p)
			}
			return out
		}
		// pick returns a random live slot (a tombstoned one when live is
		// false), or -1 when there is none.
		pick := func(live bool) int {
			var ids []int
			for id := 0; id < s.Slots(); id++ {
				if s.Recipe(id).Deleted != live {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				return -1
			}
			return ids[rng.Intn(len(ids))]
		}
		upsert := func(id int, r Region, ings []flavor.ID) {
			if _, _, _, err := s.Upsert(id, "dish", r, AllRecipes, ings); err != nil {
				t.Fatal(err)
			}
		}
		check(s, fmt.Sprintf("seed %d empty", seed))
		for step := 0; step < steps; step++ {
			var op string
			switch k := rng.Intn(10); {
			case k < 3:
				op = "insert"
				upsert(-1, randRegion(), randIngredients())
			case k == 3:
				op = "same-region replace"
				if id := pick(true); id >= 0 {
					old := s.Recipe(id)
					ings := slices.Clone(old.Ingredients)
					for { // swap one ingredient for one the recipe lacks
						next := flavor.ID(rng.Intn(pool))
						if !old.Contains(next) {
							ings[rng.Intn(len(ings))] = next
							break
						}
					}
					upsert(id, old.Region, ings)
				}
			case k == 4:
				op = "cross-region replace"
				if id := pick(true); id >= 0 {
					upsert(id, randRegion(), randIngredients())
				}
			case k == 5:
				op = "delete"
				if id := pick(true); id >= 0 {
					if _, err := s.Remove(id); err != nil {
						t.Fatal(err)
					}
				}
			case k == 6:
				op = "revive"
				if id := pick(false); id >= 0 {
					upsert(id, randRegion(), randIngredients())
				}
			case k == 7:
				op = "batch"
				items := []BatchItem{
					{ID: -1, Name: "batch insert", Region: randRegion(), Source: AllRecipes, Ingredients: randIngredients()},
					{ID: -1, Name: "too small", Region: randRegion(), Source: AllRecipes, Ingredients: randIngredients()[:1]},
					{Remove: true, ID: s.Slots() + 5},
				}
				if id := pick(true); id >= 0 {
					rec := s.Recipe(id)
					items = append(items,
						BatchItem{ID: id, Name: rec.Name, Region: rec.Region, Source: rec.Source, Ingredients: rec.Ingredients},
						BatchItem{ID: id, Name: "batch replace", Region: randRegion(), Source: AllRecipes, Ingredients: randIngredients()},
						BatchItem{Remove: true, ID: id})
				}
				rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
				s.ApplyBatch(items)
			case k == 8:
				op = "load"
				recs := []Recipe{
					{ID: -1, Name: "loaded", Region: randRegion(), Source: AllRecipes, Ingredients: randIngredients()},
					{ID: s.Slots() + rng.Intn(3), Name: "loaded past the bound", Region: randRegion(), Source: AllRecipes, Ingredients: randIngredients()},
				}
				if id := pick(true); id >= 0 {
					recs = append(recs, Recipe{ID: id, Name: "loaded over", Region: randRegion(), Source: AllRecipes, Ingredients: randIngredients()})
				}
				// An invalid recipe stops the load where it stands.
				recs = append(recs, Recipe{ID: -1, Name: "bad", Region: World, Source: AllRecipes, Ingredients: randIngredients()})
				if n, err := s.Load(recs); err == nil || n != len(recs)-1 {
					t.Fatalf("Load = %d, %v; want %d and an error", n, err, len(recs)-1)
				}
			default:
				op = "sync slots"
				if err := s.SyncSlots(s.Slots() + 1 + rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			}
			check(s, fmt.Sprintf("seed %d step %d (%s)", seed, step, op))
		}

		// Empty the largest region: checkCounters requires it to read as
		// empty, not as the residue of what it held.
		var largest Region
		for _, r := range regions {
			if s.RegionLen(r) > s.RegionLen(largest) {
				largest = r
			}
		}
		for _, id := range s.RegionRecipes(largest) {
			if _, err := s.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		check(s, fmt.Sprintf("seed %d emptied %s", seed, largest.Code()))
	}
}

// cuisineDiff names the first field where the counter-built Cuisine c
// and the walk w differ, floats compared by their bits; "" when they
// are equal.
func cuisineDiff(c *Cuisine, w *walkedCuisine, catalogLen int) string {
	if !slices.Equal(c.RecipeIDs, w.RecipeIDs) {
		return fmt.Sprintf("recipe IDs %v, walk %v", c.RecipeIDs, w.RecipeIDs)
	}
	if len(c.counts.uses) != catalogLen {
		return fmt.Sprintf("%d use counts for a catalog of %d", len(c.counts.uses), catalogLen)
	}
	for id := flavor.ID(0); int(id) < catalogLen; id++ {
		if c.Uses(id) != w.IngredientFreq[id] {
			return fmt.Sprintf("ingredient %d used %d times, walk %d", id, c.Uses(id), w.IngredientFreq[id])
		}
	}
	if !slices.Equal(c.UniqueIngredients, w.UniqueIngredients) {
		return fmt.Sprintf("unique ingredients %v, walk %v", c.UniqueIngredients, w.UniqueIngredients)
	}
	got, want := c.SizeHistogram(), w.SizeHistogram()
	gotSizes, gotPMF := got.PMF()
	wantSizes, wantPMF := want.PMF()
	_, gotCDF := got.CDF()
	_, wantCDF := want.CDF()
	switch {
	case !slices.Equal(gotSizes, wantSizes) || !sameBits(gotPMF, wantPMF):
		return fmt.Sprintf("size PMF %v %v, walk %v %v", gotSizes, gotPMF, wantSizes, wantPMF)
	case !sameBits(gotCDF, wantCDF):
		return fmt.Sprintf("size CDF %v, walk %v", gotCDF, wantCDF)
	case math.Float64bits(got.Mean()) != math.Float64bits(want.Mean()):
		return fmt.Sprintf("mean size %v, walk %v", got.Mean(), want.Mean())
	}
	for _, k := range []int{10, catalogLen} {
		if got, want := c.TopIngredients(k), w.TopIngredients(k); !slices.Equal(got, want) {
			return fmt.Sprintf("top %d %v, walk %v", k, got, want)
		}
	}
	return ""
}

// TestCuisineMatchesRecipeWalk holds BuildCuisine, which copies the
// region's list and counters, to the walk it replaced: after every step
// of regionWriteScript, every region's Cuisine (World's included) must
// equal the walk field by field. The Cuisines built at one step are
// checked again after the next write, against the walks of their own
// step: a Cuisine is a snapshot, so a write must not reach it.
func TestCuisineMatchesRecipeWalk(t *testing.T) {
	type built struct {
		c *Cuisine
		w *walkedCuisine
	}
	var prev []built
	var prevStep string
	regionWriteScript(t, func(s *Store, step string) {
		t.Helper()
		for _, b := range prev {
			if d := cuisineDiff(b.c, b.w, s.catalog.Len()); d != "" {
				t.Fatalf("%s: %s built at %s changed: %s", step, b.c.Region.Code(), prevStep, d)
			}
		}
		prev, prevStep = prev[:0], step
		for r := Region(0); r < numRegions; r++ {
			b := built{s.BuildCuisine(r), walkCuisine(s, r)}
			if d := cuisineDiff(b.c, b.w, s.catalog.Len()); d != "" {
				t.Fatalf("%s: %s: %s", step, r.Code(), d)
			}
			prev = append(prev, b)
		}
	})
}
