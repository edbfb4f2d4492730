package replica

import (
	"fmt"
	"reflect"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// fuzzFollower is a follower, without network or store, whose corpus
// stands at version 4 with slots 0–3 live. With no backend attached,
// nothing it applies can fail halfway.
func fuzzFollower(t *testing.T) *Follower {
	cat := testCatalog(t)
	corpus := recipedb.NewStore(cat)
	recs := make([]recipedb.Recipe, 4)
	for i := range recs {
		recs[i] = recipedb.Recipe{ID: i, Name: fmt.Sprintf("dish %d", i), Region: recipedb.Italy,
			Source: recipedb.AllRecipes, Ingredients: []flavor.ID{flavor.ID(i), flavor.ID(i + 1)}}
	}
	if _, err := corpus.Load(recs); err != nil {
		t.Fatal(err)
	}
	return &Follower{cfg: FollowerConfig{Catalog: cat}, corpus: corpus}
}

// fuzzSlotBound skips inputs that address slots beyond it: a slot table
// grows to the highest slot it holds, and the decoders admit any slot an
// int32 holds, which is more memory than a fuzz worker has.
const fuzzSlotBound = 1 << 12

var fuzzRecipe = recipedb.Recipe{Name: "seed dish", Region: recipedb.Japan, Source: recipedb.AllRecipes, Ingredients: []flavor.ID{7, 9, 11}}

// FuzzDecodeLog: no input panics the log decoder; one it accepts
// re-encodes to an input it decodes identically; and applying it to a
// follower either fails with the corpus — version included — exactly as
// it was, or lands the follower on the response's version.
func FuzzDecodeLog(f *testing.F) {
	f.Add(encodeLog(logBatch{primary: 8, through: 7, entries: []logEntry{
		{version: 5, id: 1, recipe: &fuzzRecipe}, {version: 6, id: 4, recipe: &fuzzRecipe}, {version: 7, id: 2}}}))
	f.Add(encodeLog(logBatch{primary: 4, through: 4}))
	f.Add(encodeLog(logBatch{primary: 9, through: 9, entries: []logEntry{{version: 9, id: 9}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeLog(data)
		if err != nil {
			return
		}
		if again, err := decodeLog(encodeLog(b)); err != nil || !reflect.DeepEqual(again, b) {
			t.Fatalf("%+v re-encodes to %+v, %v", b, again, err)
		}
		for _, e := range b.entries {
			if e.id >= fuzzSlotBound {
				return
			}
		}
		fo := fuzzFollower(t)
		before := fo.corpus.CanonicalDump()
		if err := fo.apply(b); err != nil {
			if got := fo.corpus.CanonicalDump(); got != before {
				t.Fatalf("a rejected response (%v) changed the corpus to\n%s", err, got)
			}
			return
		}
		if v := fo.corpus.Version(); v != b.through {
			t.Fatalf("applied a response through version %d and landed on %d", b.through, v)
		}
	})
}

// FuzzDecodeSnapshot: no input panics the snapshot decoder; one it
// accepts re-encodes to an input it decodes identically; and converging
// a follower on it either fails with the corpus exactly as it was, or
// leaves the follower holding the snapshot's corpus at its version.
func FuzzDecodeSnapshot(f *testing.F) {
	r := fuzzRecipe
	r.ID = 2
	f.Add(encodeSnapshot(snapshot{version: 9, slots: 6, recipes: []recipedb.Recipe{r}}))
	f.Add(encodeSnapshot(snapshot{version: 4, slots: 4}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if again, err := decodeSnapshot(encodeSnapshot(s)); err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("%+v re-encodes to %+v, %v", s, again, err)
		}
		if s.slots >= fuzzSlotBound {
			return
		}
		fo := fuzzFollower(t)
		before := fo.corpus.CanonicalDump()
		if err := fo.convergeOn(s); err != nil {
			if got := fo.corpus.CanonicalDump(); got != before {
				t.Fatalf("a refused snapshot (%v) changed the corpus to\n%s", err, got)
			}
			return
		}
		want := recipedb.NewStore(fo.cfg.Catalog)
		if err := s.installInto(want); err != nil {
			t.Fatalf("converged on a snapshot that does not install: %v", err)
		}
		if got, want := fo.corpus.CanonicalDump(), want.CanonicalDump(); got != want {
			t.Fatalf("converged on\n%s\nthe snapshot holds\n%s", got, want)
		}
	})
}
