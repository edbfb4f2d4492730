package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// liveFixture returns an empty store with a live index subscribed to
// it, plus a helper that resolves ingredient names.
func liveFixture(t *testing.T) (*recipedb.Store, *Index, func(...string) []flavor.ID) {
	t.Helper()
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	store := recipedb.NewStore(catalog)
	ids := func(names ...string) []flavor.ID {
		out := make([]flavor.ID, len(names))
		for i, n := range names {
			id, ok := catalog.Lookup(n)
			if !ok {
				t.Fatalf("catalog lacks %q", n)
			}
			out[i] = id
		}
		return out
	}
	return store, NewLive(store), ids
}

// requireEquivalent diffs the live index against a fresh Build of the
// same store — the tentpole's byte-identical equivalence guarantee.
func requireEquivalent(t *testing.T, store *recipedb.Store, live *Index) {
	t.Helper()
	fresh := Build(store)
	got, want := live.CanonicalDump(), fresh.CanonicalDump()
	if !bytes.Equal(got, want) {
		t.Fatalf("live index diverged from fresh Build at version %d:\nlive:\n%s\nfresh:\n%s",
			store.Version(), got, want)
	}
}

func TestLiveIndexUpsertVisibleImmediately(t *testing.T) {
	store, idx, ids := liveFixture(t)
	if hits := idx.Search("tomato", Options{}); len(hits) != 0 {
		t.Fatalf("empty corpus returned hits: %v", hits)
	}
	id, err := store.Add("Classic Tomato Soup", recipedb.USA, recipedb.Epicurious,
		ids("tomato", "onion", "butter", "salt"))
	if err != nil {
		t.Fatal(err)
	}
	hits := idx.Search("tomato soup", Options{})
	if len(hits) != 1 || hits[0].RecipeID != id {
		t.Fatalf("upsert not searchable immediately: %v", hits)
	}
	requireEquivalent(t, store, idx)
}

func TestLiveIndexDeleteVanishesImmediately(t *testing.T) {
	store, idx, ids := liveFixture(t)
	id, err := store.Add("Tomato Basil Pasta", recipedb.Italy, recipedb.Epicurious,
		ids("tomato", "basil", "garlic", "olive oil"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Add("Garlic Butter Shrimp", recipedb.USA, recipedb.Epicurious,
		ids("shrimp", "garlic", "butter", "parsley")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Remove(id); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"tomato", "basil", "pasta"} {
		if hits := idx.Search(q, Options{Fuzzy: true}); len(hits) != 0 {
			t.Fatalf("deleted recipe still matches %q: %v", q, hits)
		}
	}
	// "garlic" survives: the other recipe still uses it.
	if hits := idx.Search("garlic", Options{}); len(hits) != 1 {
		t.Fatalf("shared term lost with the deleted recipe: %v", hits)
	}
	requireEquivalent(t, store, idx)
}

func TestLiveIndexReplaceRetokenizes(t *testing.T) {
	store, idx, ids := liveFixture(t)
	id, err := store.Add("Miso Glazed Salmon", recipedb.Japan, recipedb.Epicurious,
		ids("salmon", "scallion", "ginger", "soy sauce"))
	if err != nil {
		t.Fatal(err)
	}
	// Replace the slot with a different region and disjoint text.
	if _, _, _, err := store.Upsert(id, "Classic Tomato Soup", recipedb.USA, recipedb.AllRecipes,
		ids("tomato", "onion", "butter", "salt")); err != nil {
		t.Fatal(err)
	}
	if hits := idx.Search("salmon miso", Options{}); len(hits) != 0 {
		t.Fatalf("replaced recipe's old terms still match: %v", hits)
	}
	hits := idx.Search("tomato", Options{Region: recipedb.USA, HasRegion: true})
	if len(hits) != 1 || hits[0].RecipeID != id {
		t.Fatalf("replacement not indexed under new region: %v", hits)
	}
	if hits := idx.Search("tomato", Options{Region: recipedb.Japan, HasRegion: true}); len(hits) != 0 {
		t.Fatalf("replacement still filed under old region: %v", hits)
	}
	requireEquivalent(t, store, idx)
}

func TestLiveIndexGapSlotUpsert(t *testing.T) {
	store, idx, ids := liveFixture(t)
	// Upsert far past the end: intermediate slots are tombstones, the
	// index must grow its slot tables identically to a fresh Build.
	if _, _, _, err := store.Upsert(5, "Classic Tomato Soup", recipedb.USA, recipedb.Epicurious,
		ids("tomato", "onion", "butter", "salt")); err != nil {
		t.Fatal(err)
	}
	hits := idx.Search("tomato", Options{})
	if len(hits) != 1 || hits[0].RecipeID != 5 {
		t.Fatalf("gap-slot upsert not searchable: %v", hits)
	}
	requireEquivalent(t, store, idx)
}

// TestLiveIndexEquivalenceRandomized churns a corpus through random
// upserts, replacements and deletes and checks byte-identical
// equivalence with a fresh Build at every step.
func TestLiveIndexEquivalenceRandomized(t *testing.T) {
	store, idx, _ := liveFixture(t)
	catalog := store.Catalog()
	rng := rand.New(rand.NewSource(42))
	names := []string{
		"Tomato Soup", "Garlic Shrimp", "Miso Salmon", "Basil Pasta",
		"Onion Tart", "Butter Chicken", "Ginger Beef", "Salt Cod Stew",
	}
	randIngredients := func() []flavor.ID {
		n := 2 + rng.Intn(5)
		seen := map[flavor.ID]bool{}
		out := make([]flavor.ID, 0, n)
		for len(out) < n {
			id := flavor.ID(rng.Intn(catalog.Len()))
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		return out
	}
	regions := []recipedb.Region{recipedb.USA, recipedb.Italy, recipedb.Japan, recipedb.Mexico}
	const slots = 12
	for step := 0; step < 300; step++ {
		slot := rng.Intn(slots)
		if rng.Intn(4) == 0 {
			if _, err := store.Remove(slot); err != nil {
				continue // slot already empty
			}
		} else {
			name := fmt.Sprintf("%s #%d", names[rng.Intn(len(names))], step)
			if _, _, _, err := store.Upsert(slot, name, regions[rng.Intn(len(regions))],
				recipedb.Epicurious, randIngredients()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if step%25 == 0 {
			requireEquivalent(t, store, idx)
		}
	}
	requireEquivalent(t, store, idx)
}

// TestLiveIndexConcurrentSearchDuringMutation races searches against
// mutations; run under -race it proves the index locking, and the
// quiesced state must still be byte-identical to a fresh Build.
func TestLiveIndexConcurrentSearchDuringMutation(t *testing.T) {
	store, idx, ids := liveFixture(t)
	ing := ids("tomato", "onion", "butter", "salt")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var hits []Hit
				var version uint64
				store.Read(func(v *recipedb.View) {
					hits, version = idx.SearchView(v, "tomato", Options{Fuzzy: true}), v.Version
				})
				if version < last {
					t.Errorf("corpus version went backwards: %d -> %d", last, version)
					return
				}
				last = version
				for _, h := range hits {
					if h.RecipeID < 0 {
						t.Errorf("bogus hit %+v", h)
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		slot := i % 8
		if i%5 == 4 {
			store.Remove(slot) //nolint:errcheck // slot may be empty
			continue
		}
		if _, _, _, err := store.Upsert(slot, fmt.Sprintf("Tomato Soup %d", i),
			recipedb.USA, recipedb.Epicurious, ing); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	requireEquivalent(t, store, idx)
}
