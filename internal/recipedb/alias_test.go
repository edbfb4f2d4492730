package recipedb_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/query"
	"culinary/internal/recipedb"
)

// TestPostingListAliasSafety races every reader of the store's posting
// lists against writers that patch them in place: one replacing and
// deleting low IDs (mid-list), one replacing, deleting and appending at
// the tail. Readers check what each path promises — lists ascending and
// naming live recipes that hold the ingredient or sit in the region
// inside Store.Read, BuildCuisine and query scans consistent with
// themselves, and the exported accessors' slices never changing after
// they return. Run it under -race: a reader that touches a list outside
// the lock is a reported race, not a flaky count.
func TestPostingListAliasSafety(t *testing.T) {
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var pool []flavor.ID // single-word names, so query statements need no quoting
	for i := 0; len(pool) < 24 && i < catalog.Len(); i++ {
		if name := catalog.Ingredient(flavor.ID(i)).Name; !strings.ContainsAny(name, ` '"\`) {
			pool = append(pool, flavor.ID(i))
		}
	}
	regions := []recipedb.Region{recipedb.Italy, recipedb.France, recipedb.USA}
	readRegions := append(slices.Clone(regions), recipedb.World)
	recipe := func(id, k int) recipedb.Recipe {
		return recipedb.Recipe{ID: id, Name: fmt.Sprintf("dish %d", k), Region: regions[k%len(regions)],
			Source: recipedb.AllRecipes, Ingredients: []flavor.ID{pool[0], pool[1+k%7], pool[8+k%16]}}
	}
	const n = 3000
	recs := make([]recipedb.Recipe, n)
	for i := range recs {
		recs[i] = recipe(i, i)
	}
	store := recipedb.NewStore(catalog)
	if _, err := store.Load(recs); err != nil {
		t.Fatal(err)
	}
	engine := query.NewEngine(store, nil)

	var stop atomic.Bool
	var scanned atomic.Int64 // query scans that returned rows
	var readers, writers sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	ascending := func(ids []int) bool {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return false
			}
		}
		return true
	}
	read := func(w int) {
		defer readers.Done()
		for k := w; !stop.Load(); k++ {
			ing, region := pool[k%len(pool)], readRegions[k%len(readRegions)]
			switch k % 5 {
			case 0:
				store.Read(func(v *recipedb.View) {
					list := v.IngredientRecipes(ing)
					if !ascending(list) {
						fail("View.IngredientRecipes(%d) not ascending", ing)
					}
					for _, id := range list {
						if r := v.Recipe(id); r.Deleted || !r.Contains(ing) {
							fail("View.IngredientRecipes(%d) names slot %d: %+v", ing, id, *r)
						}
					}
					list = v.RegionRecipes(region)
					if !ascending(list) {
						fail("View.RegionRecipes(%v) not ascending", region)
					}
					for _, id := range list {
						if r := v.Recipe(id); r.Deleted || region != recipedb.World && r.Region != region {
							fail("View.RegionRecipes(%v) names slot %d: %+v", region, id, *r)
						}
					}
					live := 0
					for id := range v.Slots() {
						if r := v.Recipe(id); !r.Deleted && (region == recipedb.World || r.Region == region) {
							live++
						}
					}
					if live != len(list) {
						fail("%d live %v recipes in the slots, RegionRecipes has %d", live, region, len(list))
					}
				})
			case 1:
				c := store.BuildCuisine(region)
				if !ascending(c.RecipeIDs) || c.SizeHistogram().Total() != len(c.RecipeIDs) {
					fail("BuildCuisine(%v): %d ids, %d sizes", region, len(c.RecipeIDs), c.SizeHistogram().Total())
				}
			case 2:
				name := catalog.Ingredient(ing).Name
				res, err := engine.Run(fmt.Sprintf("SELECT id FROM recipes WHERE has('%s') AND region = '%s'", name, region.Code()))
				if err != nil {
					fail("query: %v", err)
					return
				}
				ids := make([]int, len(res.Rows))
				for i, row := range res.Rows {
					ids[i] = int(row[0].Int)
				}
				if !ascending(ids) {
					fail("query scan of %q rows not ascending: %v", name, ids)
				}
				if len(ids) > 0 {
					scanned.Add(1)
				}
			default:
				byIng, byRegion := store.IngredientRecipes(ing), store.RegionRecipes(region)
				wantIng, wantRegion := slices.Clone(byIng), slices.Clone(byRegion)
				for range 3 {
					store.Read(func(v *recipedb.View) { _ = v.IngredientRecipes(ing) })
				}
				if !ascending(byIng) || !ascending(byRegion) ||
					!slices.Equal(byIng, wantIng) || !slices.Equal(byRegion, wantRegion) {
					fail("an accessor's slice changed after it returned")
				}
			}
		}
	}
	for w := range 4 {
		readers.Add(1)
		go read(w)
	}
	write := func(slot func(k int) int) {
		defer writers.Done()
		for k := 0; k < 600 && !stop.Load(); k++ {
			id := slot(k)
			if k%4 == 3 {
				store.Remove(id) //nolint:errcheck // the slot may already be a tombstone
				continue
			}
			r := recipe(id, n+k)
			if _, _, _, err := store.Upsert(id, r.Name, r.Region, r.Source, r.Ingredients); err != nil {
				fail("upsert %d: %v", id, err)
			}
		}
	}
	writers.Add(2)
	go write(func(k int) int { return (k * 7) % 64 })
	go write(func(k int) int {
		if k%5 == 0 {
			return -1 // append a fresh slot
		}
		return store.Slots() - 1 - (k*3)%64
	})
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if scanned.Load() == 0 {
		t.Fatal("no query scan returned a row: the battery lost its query reader")
	}
}
