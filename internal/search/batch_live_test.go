package search

import (
	"bytes"
	"fmt"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// TestLiveIndexBatchEquivalence: applying a mutation script through
// ApplyBatch (one coalesced SubscribeBatch delivery per chunk) must
// leave the live index byte-identical to a fresh Build AND to the live
// index of a twin store that applied the same script one item at a
// time. This is the search-layer half of the batched-vs-sequential
// equivalence guarantee.
func TestLiveIndexBatchEquivalence(t *testing.T) {
	batchStore, batchIdx, ids := liveFixture(t)
	seqStore, seqIdx, _ := liveFixture(t)

	var script []recipedb.BatchItem
	regions := []recipedb.Region{recipedb.Italy, recipedb.France, recipedb.USA}
	for i := 0; i < 24; i++ {
		script = append(script, recipedb.BatchItem{
			ID:     -1,
			Name:   fmt.Sprintf("batch soup %d", i),
			Region: regions[i%len(regions)],
			Source: recipedb.AllRecipes,
			Ingredients: append(ids("tomato", "onion"),
				flavor.ID(10+i)),
		})
	}
	// Replacements, removes, and an in-batch re-insert of a removed slot.
	script = append(script,
		recipedb.BatchItem{ID: 3, Name: "replaced stew", Region: recipedb.France,
			Source: recipedb.AllRecipes, Ingredients: ids("butter", "cream", "garlic")},
		recipedb.BatchItem{Remove: true, ID: 7},
		recipedb.BatchItem{Remove: true, ID: 11},
		recipedb.BatchItem{ID: 11, Name: "revived salad", Region: recipedb.Italy,
			Source: recipedb.AllRecipes, Ingredients: ids("tomato", "basil", "olive oil")},
		// A validation reject mid-batch must be invisible to the index.
		recipedb.BatchItem{ID: -1, Name: "bogus", Region: recipedb.World,
			Source: recipedb.AllRecipes, Ingredients: ids("tomato", "basil")},
		recipedb.BatchItem{ID: -1, Name: "final dish", Region: recipedb.USA,
			Source: recipedb.AllRecipes, Ingredients: ids("butter", "salt")},
	)

	for _, op := range script {
		seqStore.ApplyBatch([]recipedb.BatchItem{op})
	}
	for i := 0; i < len(script); i += 6 {
		end := i + 6
		if end > len(script) {
			end = len(script)
		}
		batchStore.ApplyBatch(script[i:end])
	}

	requireEquivalent(t, batchStore, batchIdx)
	requireEquivalent(t, seqStore, seqIdx)
	if got, want := batchIdx.CanonicalDump(), seqIdx.CanonicalDump(); !bytes.Equal(got, want) {
		t.Fatalf("batched live index diverges from sequential twin:\nbatched:\n%s\nsequential:\n%s", got, want)
	}
	if batchStore.CanonicalDump() != seqStore.CanonicalDump() {
		t.Fatal("store dumps diverge between batched and sequential application")
	}

	// Freshness: a batch is searchable the moment ApplyBatch returns.
	if hits := batchIdx.Search("revived salad", Options{}); len(hits) != 1 || hits[0].RecipeID != 11 {
		t.Fatalf("revived slot not searchable: %v", hits)
	}
	if hits := batchIdx.Search("bogus", Options{}); len(hits) != 0 {
		t.Fatalf("rejected item leaked into the index: %v", hits)
	}
}

// TestApplyBatchMatchesSequentialApply drives the two Index entry
// points directly with one real mutation stream captured off a store:
// ApplyBatch(ms) must land the index in the same state as Apply called
// once per mutation.
func TestApplyBatchMatchesSequentialApply(t *testing.T) {
	store, _, ids := liveFixture(t)
	for i := 0; i < 10; i++ {
		if _, err := store.Add(fmt.Sprintf("dish %d", i), recipedb.Italy, recipedb.AllRecipes,
			append(ids("tomato"), flavor.ID(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	one := Build(store)
	all := Build(store)

	var muts []recipedb.Mutation
	store.SubscribeBatch(nil, func(ms []recipedb.Mutation) {
		muts = append(muts, ms...)
	})
	res := store.ApplyBatch([]recipedb.BatchItem{
		{ID: 0, Name: "zero", Region: recipedb.France, Source: recipedb.AllRecipes,
			Ingredients: ids("butter", "cream")},
		{ID: -1, Name: "fresh", Region: recipedb.Italy, Source: recipedb.AllRecipes,
			Ingredients: ids("tomato", "basil")},
		{Remove: true, ID: 1},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if len(muts) != 3 {
		t.Fatalf("captured %d mutations, want 3", len(muts))
	}
	for _, m := range muts {
		one.ApplyBatch([]recipedb.Mutation{m})
	}
	all.ApplyBatch(muts)
	if got, want := all.CanonicalDump(), one.CanonicalDump(); !bytes.Equal(got, want) {
		t.Fatalf("ApplyBatch diverges from one-mutation batches:\nbatch:\n%s\nsequential:\n%s", got, want)
	}
	if got, want := all.CanonicalDump(), Build(store).CanonicalDump(); !bytes.Equal(got, want) {
		t.Fatalf("ApplyBatch diverges from fresh Build:\nbatch:\n%s\nfresh:\n%s", got, want)
	}
}
