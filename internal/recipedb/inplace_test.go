package recipedb

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"culinary/internal/flavor"
)

// Posting lists are patched in place under the write lock. These tests
// pin what that must not change: a list an accessor hands out is the
// caller's, and a write allocates the same few times however long the
// lists it patches are.

// TestAccessorsReturnCopies: a slice returned by IngredientRecipes or
// RegionRecipes must not change after later mutations, and writing to
// it must not reach the store.
func TestAccessorsReturnCopies(t *testing.T) {
	s := NewStore(testCatalog)
	for i := 0; i < 8; i++ {
		addRecipe(t, s, fmt.Sprintf("dish %d", i), Italy, "tomato", "basil")
	}
	tomato := mustID(t, "tomato")
	byIng, byRegion := s.IngredientRecipes(tomato), s.RegionRecipes(Italy)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7}

	// Mid-list deletes and inserts shift the store's arrays in place.
	if _, err := s.Remove(2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Upsert(5, "moved", France, AllRecipes, ids(t, "butter", "cream")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Upsert(2, "back", Italy, AllRecipes, ids(t, "tomato", "basil")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Remove(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byIng, want) || !reflect.DeepEqual(byRegion, want) {
		t.Fatalf("returned slices changed under later mutations: ingredient %v, region %v, want %v", byIng, byRegion, want)
	}

	now := []int{1, 2, 3, 4, 6, 7}
	byIng[0], byRegion[0] = -1, -1
	if got := s.IngredientRecipes(tomato); !reflect.DeepEqual(got, now) {
		t.Fatalf("tomato postings = %v, want %v", got, now)
	}
	if got := s.RegionRecipes(Italy); !reflect.DeepEqual(got, now) {
		t.Fatalf("Italy = %v, want %v", got, now)
	}
}

// writeCost runs f twice to settle list capacities, then returns the
// allocations per run (testing.AllocsPerRun) and the bytes per run of
// the same measurement.
func writeCost(f func()) (allocs, bytes float64) {
	const runs = 200
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
}

// TestWriteAllocationBudget pins what replacing and deleting a low-ID
// recipe allocates in recipedb, on stores whose region and shared
// ingredient lists hold 1 000 and 12 000 IDs: the same small count at
// both sizes, and bytes far below one list. Copy-on-write lists cost
// one allocation per touched list and a list's worth of bytes each.
func TestWriteAllocationBudget(t *testing.T) {
	const (
		// replaceAllocs: the writeOp, the one-op slice it rides in and its
		// ingredient copy, the displaced and the new recipe handed to
		// subscribers, and the group's mutation slice.
		replaceAllocs = 6
		// deleteAllocs: a Remove (writeOp, its slice, the displaced
		// recipe, the mutation slice) plus the Upsert reviving the slot.
		deleteAllocs = 9
		maxBytes     = 2048
	)
	seen := map[string]float64{}
	a := Recipe{Name: "a", Region: Italy, Source: AllRecipes, Ingredients: []flavor.ID{0, 1, 100, 101}}
	b := Recipe{Name: "b", Region: France, Source: AllRecipes, Ingredients: []flavor.ID{0, 1, 102, 103}}
	for _, n := range []int{1000, 12000} {
		recs := make([]Recipe, n)
		recs[0] = a
		for i := 1; i < n; i++ {
			recs[i] = Recipe{ID: i, Name: "bulk", Region: Italy, Source: AllRecipes,
				Ingredients: []flavor.ID{0, 1, flavor.ID(2 + i%40), flavor.ID(42 + i%40)}}
		}
		s := NewStore(testCatalog)
		if _, err := s.Load(recs); err != nil {
			t.Fatal(err)
		}
		upsert := func(r Recipe) {
			if _, _, _, err := s.Upsert(0, r.Name, r.Region, r.Source, r.Ingredients); err != nil {
				t.Fatal(err)
			}
		}
		flip := false
		replace := func() { // Italy ↔ France, two ingredients swapped, two shared
			flip = !flip
			if flip {
				upsert(b)
			} else {
				upsert(a)
			}
		}
		remove := func() {
			if _, err := s.Remove(0); err != nil {
				t.Fatal(err)
			}
			upsert(a)
		}
		for _, c := range []struct {
			name   string
			f      func()
			allocs float64
		}{{"replace", replace, replaceAllocs}, {"delete", remove, deleteAllocs}} {
			allocs, bytes := writeCost(c.f)
			t.Logf("n=%d %s: %.0f allocs, %.0f B", n, c.name, allocs, bytes)
			if allocs > c.allocs || bytes > maxBytes {
				t.Errorf("n=%d %s: %.0f allocs and %.0f B per run; budget %.0f allocs and %d B",
					n, c.name, allocs, bytes, c.allocs, maxBytes)
			}
			if prev, ok := seen[c.name]; ok && prev != allocs {
				t.Errorf("%s allocates %.0f times at n=%d and %.0f at n=1000: the count depends on list length",
					c.name, allocs, n, prev)
			}
			seen[c.name] = allocs
		}
		if got := len(s.RegionRecipes(Italy)); got != n {
			t.Fatalf("Italy holds %d recipes, want %d", got, n)
		}
	}
}
