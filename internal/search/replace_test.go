package search

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// A replacement is a diff on both sides of the subscription: the store
// moves the slot only on the region and ingredient lists that differ,
// and the index rewrites the tf of the terms both recipes hold and
// inserts or removes only the rest. These tests hold both diffs to a
// fresh Load and a fresh Build.

// firstDiff names the first line where two dumps differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d lines, want %d", len(g), len(w))
}

// requireBothDumps holds the store to a fresh store loaded with its live
// recipes at its slot bound and version, and the live index to a fresh
// Build of the store.
func requireBothDumps(t *testing.T, store *recipedb.Store, live *Index, what string) {
	t.Helper()
	var recs []recipedb.Recipe
	store.Read(func(v *recipedb.View) {
		for _, id := range v.RegionRecipes(recipedb.World) {
			recs = append(recs, *v.Recipe(id))
		}
	})
	fresh := recipedb.NewStore(store.Catalog())
	if _, err := fresh.Load(recs); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SyncSlots(store.Slots()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.SyncVersion(store.Version()); err != nil {
		t.Fatal(err)
	}
	if got, want := store.CanonicalDump(), fresh.CanonicalDump(); got != want {
		t.Fatalf("%s: store diverged from a fresh Load at %s", what, firstDiff(got, want))
	}
	if got, want := live.CanonicalDump(), Build(store).CanonicalDump(); !bytes.Equal(got, want) {
		t.Fatalf("%s: live index diverged from a fresh Build at %s", what, firstDiff(string(got), string(want)))
	}
}

// diffFixture is a live-indexed store of n recipes over a few words and
// ingredients, so every region, ingredient and common term has a list
// hundreds long and a low slot sits in front of a long tail.
func diffFixture(t *testing.T, n int) (*recipedb.Store, *Index, func(...string) []flavor.ID, []flavor.ID) {
	t.Helper()
	store, live, ids := liveFixture(t)
	pool := ids("tomato", "onion", "garlic", "basil", "butter", "cream", "salt", "ginger",
		"shrimp", "salmon", "parsley", "scallion")
	words := []string{"Tomato", "Garlic", "Soup", "Stew", "Pasta", "Salad", "Roast", "Basil"}
	rnd := rand.New(rand.NewSource(7))
	regions := []recipedb.Region{recipedb.Italy, recipedb.France, recipedb.USA}
	recs := make([]recipedb.Recipe, n)
	for i := range recs {
		perm := rnd.Perm(len(pool))[:3+rnd.Intn(4)]
		ings := make([]flavor.ID, len(perm))
		for j, k := range perm {
			ings[j] = pool[k]
		}
		recs[i] = recipedb.Recipe{ID: i, Name: words[rnd.Intn(len(words))] + " " + words[rnd.Intn(len(words))],
			Region: regions[rnd.Intn(len(regions))], Source: recipedb.Epicurious, Ingredients: ings}
	}
	if _, err := store.Load(recs); err != nil {
		t.Fatal(err)
	}
	requireBothDumps(t, store, live, "fixture")
	return store, live, ids, pool
}

// TestReplacementDiffScripted walks the cases the diffs distinguish on
// low slots, one mutation at a time and as batches: kept region,
// ingredients and name words with the same and with a different tf, a
// swapped ingredient, a moved region, a term that enters and then
// leaves the vocabulary, and a delete and revival.
func TestReplacementDiffScripted(t *testing.T) {
	store, live, ids, _ := diffFixture(t, 2000)
	vocab := live.Vocabulary()
	steps := []struct {
		what   string
		name   string
		region recipedb.Region
		ings   []string
	}{
		{"baseline", "Tomato Garlic Soup", recipedb.Italy, []string{"tomato", "garlic", "basil", "onion"}},
		{"one name word swapped, every tf kept", "Tomato Garlic Stew", recipedb.Italy, []string{"tomato", "garlic", "basil", "onion"}},
		{"kept terms change tf", "Tomato Tomato Stew", recipedb.Italy, []string{"tomato", "garlic", "basil", "onion"}},
		{"one ingredient swapped", "Tomato Tomato Stew", recipedb.Italy, []string{"tomato", "garlic", "butter", "onion"}},
		{"region moved, text kept", "Tomato Tomato Stew", recipedb.France, []string{"tomato", "garlic", "butter", "onion"}},
		{"a term enters the vocabulary", "Zyzzyva Stew", recipedb.France, []string{"tomato", "garlic", "butter", "onion"}},
		{"the term leaves it again", "Tomato Stew", recipedb.France, []string{"tomato", "garlic", "butter", "onion"}},
	}
	for _, slot := range []int{0, 3, 1999} {
		for _, st := range steps {
			if _, _, _, err := store.Upsert(slot, st.name, st.region, recipedb.Epicurious, ids(st.ings...)); err != nil {
				t.Fatal(err)
			}
			requireBothDumps(t, store, live, fmt.Sprintf("slot %d, %s", slot, st.what))
			if got := len(live.Search("zyzzyva", Options{})); (st.name == "Zyzzyva Stew") != (got == 1) {
				t.Fatalf("slot %d, %s: %d hits for the once-only term", slot, st.what, got)
			}
		}
		if _, err := store.Remove(slot); err != nil {
			t.Fatal(err)
		}
		requireBothDumps(t, store, live, fmt.Sprintf("slot %d deleted", slot))
		if _, _, _, err := store.Upsert(slot, "Garlic Soup", recipedb.USA, recipedb.Epicurious, ids("garlic", "salt")); err != nil {
			t.Fatal(err)
		}
		requireBothDumps(t, store, live, fmt.Sprintf("slot %d revived", slot))
	}
	if live.Vocabulary() != vocab {
		t.Fatalf("vocabulary %d terms after the script, %d before", live.Vocabulary(), vocab)
	}

	// The same cases inside one batch: one slot replaced several times,
	// a delete and revival, so one subscriber call carries every diff.
	item := func(id int, name string, region recipedb.Region, ings ...string) recipedb.BatchItem {
		return recipedb.BatchItem{ID: id, Name: name, Region: region, Source: recipedb.Epicurious, Ingredients: ids(ings...)}
	}
	batch := []recipedb.BatchItem{
		item(4, "Basil Pasta", recipedb.Italy, "basil", "garlic", "tomato"),
		item(4, "Basil Basil Pasta", recipedb.Italy, "basil", "garlic", "tomato"),
		item(4, "Qwertyuiop Pasta", recipedb.USA, "basil", "garlic", "cream"),
		{Remove: true, ID: 5},
		item(5, "Roast Salmon", recipedb.France, "salmon", "butter"),
		item(4, "Basil Pasta", recipedb.USA, "basil", "garlic", "cream"),
	}
	for i, r := range store.ApplyBatch(batch) {
		if r.Err != nil {
			t.Fatalf("batch item %d: %v", i, r.Err)
		}
	}
	requireBothDumps(t, store, live, "batch")
	if got := live.Search("qwertyuiop", Options{Fuzzy: true}); len(got) != 0 {
		t.Fatalf("a term only a displaced recipe held still matches: %v", got)
	}
}

// TestReplacementDiffRandomized replaces recipes mostly on low slots with
// variations of themselves — region kept at 70 %, each ingredient and
// name word kept at 60 %, words repeated so kept terms change tf —
// mixed with deletes and revivals, applied one at a time and in batches.
func TestReplacementDiffRandomized(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		store, live, _, pool := diffFixture(t, 1500)
		rnd := rand.New(rand.NewSource(seed))
		words := []string{"tomato", "garlic", "soup", "stew", "basil", "onion", "roast", "salad"}
		regions := []recipedb.Region{recipedb.Italy, recipedb.France, recipedb.USA, recipedb.Japan}
		vary := func(id int) recipedb.BatchItem {
			cur := store.Recipe(id)
			if cur.Deleted {
				cur = store.Recipe(rnd.Intn(store.Slots()))
			}
			it := recipedb.BatchItem{ID: id, Region: cur.Region, Source: recipedb.Epicurious}
			if cur.Deleted || rnd.Intn(10) >= 7 {
				it.Region = regions[rnd.Intn(len(regions))]
			}
			var name []string
			for _, w := range strings.Fields(cur.Name) {
				if rnd.Intn(10) < 6 {
					name = append(name, w)
				}
			}
			for range rnd.Intn(3) {
				name = append(name, words[rnd.Intn(len(words))])
			}
			if rnd.Intn(8) == 0 {
				name = append(name, fmt.Sprintf("once%c%c", 'a'+rnd.Intn(26), 'a'+rnd.Intn(26)))
			}
			it.Name = strings.Join(name, " ")
			for _, ing := range cur.Ingredients {
				if rnd.Intn(10) < 6 {
					it.Ingredients = append(it.Ingredients, ing)
				}
			}
			for len(it.Ingredients) < 2 || rnd.Intn(3) == 0 {
				if ing := pool[rnd.Intn(len(pool))]; !slices.Contains(it.Ingredients, ing) {
					it.Ingredients = append(it.Ingredients, ing)
				}
			}
			return it
		}
		for step := 0; step < 600; {
			n := 1
			if rnd.Intn(3) == 0 {
				n = 2 + rnd.Intn(6)
			}
			var batch []recipedb.BatchItem
			for range n {
				id := rnd.Intn(16)
				if rnd.Intn(5) == 0 {
					id = rnd.Intn(store.Slots())
				}
				if rnd.Intn(10) == 0 {
					batch = append(batch, recipedb.BatchItem{Remove: true, ID: id})
				} else {
					batch = append(batch, vary(id))
				}
			}
			store.ApplyBatch(batch) // a delete of a tombstone is rejected in place
			step += n
			if step%50 < n {
				requireBothDumps(t, store, live, fmt.Sprintf("seed %d step %d", seed, step))
			}
		}
		requireBothDumps(t, store, live, fmt.Sprintf("seed %d end", seed))
	}
}

// TestApplyBatchAllocationBudget pins what Index.ApplyBatch allocates
// for one replacement on indexes whose shared terms hold 1 000 and
// 12 000 postings: the same small count at both sizes, and bytes far
// below one list. The replacement moves regions, swaps two ingredients,
// changes one name word and one tf, and leaves the vocabulary as it was.
func TestApplyBatchAllocationBudget(t *testing.T) {
	// replaceAllocs: tokenizing the displaced and the new recipe's names;
	// the count maps are the index's scratch and no list grows.
	const (
		replaceAllocs = 6
		maxBytes      = 1024
	)
	store, _, ids := liveFixture(t)
	// Recipe-sized documents: a dozen ingredients, more terms than a
	// small map holds without growing.
	shared := ids("tomato", "onion", "salt", "ginger", "shrimp", "salmon", "parsley", "scallion", "cream cheese", "olive oil")
	a := recipedb.Recipe{Name: "Tomato Soup", Region: recipedb.Italy, Source: recipedb.Epicurious,
		Ingredients: append(ids("garlic", "basil"), shared...)}
	b := recipedb.Recipe{Name: "Tomato Tomato Stew", Region: recipedb.France, Source: recipedb.Epicurious,
		Ingredients: append(ids("butter", "cream"), shared...)}
	pool := ids("garlic", "basil", "butter", "cream")
	var prev float64
	for _, n := range []int{1000, 12000} {
		recs := make([]recipedb.Recipe, n)
		recs[0] = a
		for i := 1; i < n; i++ {
			recs[i] = recipedb.Recipe{ID: i, Name: "Tomato Soup Stew", Region: recipedb.Italy, Source: recipedb.Epicurious,
				Ingredients: append([]flavor.ID{pool[i%4], pool[(i+1)%4]}, shared...)}
		}
		s := recipedb.NewStore(store.Catalog())
		if _, err := s.Load(recs); err != nil {
			t.Fatal(err)
		}
		idx := Build(s)
		vocab := idx.Vocabulary()
		toB := []recipedb.Mutation{{ID: 0, Old: &a, New: &b}}
		toA := []recipedb.Mutation{{ID: 0, Old: &b, New: &a}}
		v := s.Version()
		flip := false
		replace := func() {
			ms := toA
			if flip = !flip; flip {
				ms = toB
			}
			v++
			ms[0].Version = v
			idx.ApplyBatch(ms)
		}
		replace()
		replace()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(200, replace)
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / 201
		t.Logf("n=%d: %.0f allocs, %.0f B per replacement", n, allocs, bytes)
		if allocs > replaceAllocs || bytes > maxBytes {
			t.Errorf("n=%d: %.0f allocs and %.0f B per replacement; budget %d allocs and %d B", n, allocs, bytes, replaceAllocs, maxBytes)
		}
		if prev != 0 && allocs != prev {
			t.Errorf("a replacement allocates %.0f times at n=%d and %.0f at n=1000", allocs, n, prev)
		}
		prev = allocs
		if idx.Vocabulary() != vocab || len(idx.postings["tomato"]) != n {
			t.Fatalf("n=%d: vocabulary %d (was %d), %d tomato postings", n, idx.Vocabulary(), vocab, len(idx.postings["tomato"]))
		}
	}
}
