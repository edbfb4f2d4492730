package storage

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/search"
)

// testCatalog builds a small deterministic catalog shared by snapshot
// tests.
func testCatalog(t *testing.T) *flavor.Catalog {
	t.Helper()
	cfg := flavor.DefaultConfig()
	catalog, err := flavor.Build(cfg)
	if err != nil {
		t.Fatalf("building catalog: %v", err)
	}
	return catalog
}

// testCorpus assembles a tiny corpus by hand.
func testCorpus(t *testing.T, catalog *flavor.Catalog) *recipedb.Store {
	t.Helper()
	corpus := recipedb.NewStore(catalog)
	names := catalog.Names()
	mustAdd := func(name string, region recipedb.Region, n int, offset int) {
		ids := make([]flavor.ID, n)
		for i := range ids {
			id, ok := catalog.Lookup(names[(offset+i*7)%len(names)])
			if !ok {
				t.Fatalf("lookup %q failed", names[(offset+i*7)%len(names)])
			}
			ids[i] = id
		}
		if _, err := corpus.Add(name, region, recipedb.AllRecipes, ids); err != nil {
			t.Fatalf("Add(%q): %v", name, err)
		}
	}
	mustAdd("pasta al pomodoro", recipedb.Italy, 5, 0)
	mustAdd("miso soup", recipedb.Japan, 4, 40)
	mustAdd("butter chicken", recipedb.IndianSubcontinent, 9, 90)
	mustAdd("tacos al pastor", recipedb.Mexico, 7, 140)
	return corpus
}

// largeTestCorpus is testCorpus plus 40 filler recipes: enough records
// to span several small segments and to leave gaps when thinned.
func largeTestCorpus(t *testing.T, catalog *flavor.Catalog) *recipedb.Store {
	t.Helper()
	corpus := testCorpus(t, catalog)
	r0 := corpus.Recipe(0)
	for i := 0; i < 40; i++ {
		if _, err := corpus.Add(fmt.Sprintf("filler dish %02d", i), recipedb.Greece, recipedb.AllRecipes, r0.Ingredients); err != nil {
			t.Fatal(err)
		}
	}
	return corpus
}

func TestRecipeEncodeDecodeRoundTrip(t *testing.T) {
	catalog := testCatalog(t)
	corpus := testCorpus(t, catalog)
	for i := 0; i < corpus.Len(); i++ {
		r := corpus.Recipe(i)
		name, region, source, ids, err := decodeRecipe(recipedb.EncodeRecipe(&r))
		if err != nil {
			t.Fatalf("decode recipe %d: %v", i, err)
		}
		if name != r.Name || region != r.Region || source != r.Source {
			t.Errorf("recipe %d header mismatch: %q/%v/%v", i, name, region, source)
		}
		if len(ids) != len(r.Ingredients) {
			t.Fatalf("recipe %d ids %d, want %d", i, len(ids), len(r.Ingredients))
		}
		for j := range ids {
			if ids[j] != r.Ingredients[j] {
				t.Errorf("recipe %d id[%d] = %d, want %d", i, j, ids[j], r.Ingredients[j])
			}
		}
	}
}

func TestDecodeRecipeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0xFF},
		{1, 1, 200}, // name length far beyond remaining bytes
		{1, 1, 1, 'x', 250},
	}
	for i, data := range cases {
		if _, _, _, _, err := decodeRecipe(data); !errors.Is(err, ErrSnapshot) {
			t.Errorf("case %d: err = %v, want ErrSnapshot", i, err)
		}
	}
	// Trailing bytes after a valid body must be rejected.
	catalog := testCatalog(t)
	corpus := testCorpus(t, catalog)
	first := corpus.Recipe(0)
	good := recipedb.EncodeRecipe(&first)
	if _, _, _, _, err := decodeRecipe(append(good, 0)); !errors.Is(err, ErrSnapshot) {
		t.Errorf("trailing byte: err = %v, want ErrSnapshot", err)
	}
}

func TestSaveLoadCorpus(t *testing.T) {
	catalog := testCatalog(t)
	corpus := testCorpus(t, catalog)

	db := openTemp(t, Options{})
	if err := SaveCorpus(db, corpus); err != nil {
		t.Fatalf("SaveCorpus: %v", err)
	}
	loaded, err := LoadCorpus(db, catalog)
	if err != nil {
		t.Fatalf("LoadCorpus: %v", err)
	}
	if loaded.Len() != corpus.Len() {
		t.Fatalf("loaded %d recipes, want %d", loaded.Len(), corpus.Len())
	}
	for i := 0; i < corpus.Len(); i++ {
		a, b := corpus.Recipe(i), loaded.Recipe(i)
		if a.Name != b.Name || a.Region != b.Region || a.Source != b.Source || a.Size() != b.Size() {
			t.Errorf("recipe %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestSaveCorpusShrinksPriorSnapshot(t *testing.T) {
	catalog := testCatalog(t)
	corpus := testCorpus(t, catalog)
	db := openTemp(t, Options{})
	if err := SaveCorpus(db, corpus); err != nil {
		t.Fatal(err)
	}

	// Save a smaller corpus over it: stale recipe keys must disappear.
	small := recipedb.NewStore(catalog)
	r := corpus.Recipe(0)
	if _, err := small.Add(r.Name, r.Region, r.Source, r.Ingredients); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(db, small); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(db, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 1 {
		t.Errorf("loaded %d recipes, want 1 (stale keys must be deleted)", loaded.Len())
	}
}

func TestLoadCorpusCatalogMismatch(t *testing.T) {
	catalog := testCatalog(t)
	corpus := testCorpus(t, catalog)
	db := openTemp(t, Options{})
	if err := SaveCorpus(db, corpus); err != nil {
		t.Fatal(err)
	}

	otherCfg := flavor.DefaultConfig()
	otherCfg.Seed++
	other, err := flavor.Build(otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(db, other); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("LoadCorpus with mismatched catalog = %v, want ErrSnapshot", err)
	}
}

func TestLoadCorpusRequiresSnapshot(t *testing.T) {
	catalog := testCatalog(t)
	db := openTemp(t, Options{})
	if _, err := LoadCorpus(db, catalog); err == nil {
		t.Fatal("LoadCorpus on empty store succeeded")
	}
	// A wrong format marker is also rejected.
	if err := db.Put(formatKey, []byte("bogus/9")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(db, catalog); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("err = %v, want ErrSnapshot", err)
	}
}

func TestSnapshotSurvivesReopenAndCompact(t *testing.T) {
	catalog := testCatalog(t)
	corpus := testCorpus(t, catalog)
	dir := t.TempDir()
	db, err := Open(dir, Options{MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(db, corpus); err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(db, corpus); err != nil { // double save creates dead bytes
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	loaded, err := LoadCorpus(db2, catalog)
	if err != nil {
		t.Fatalf("LoadCorpus after reopen+compact: %v", err)
	}
	if loaded.Len() != corpus.Len() {
		t.Errorf("loaded %d, want %d", loaded.Len(), corpus.Len())
	}
}

// replayLive rebuilds corpus the way a reload must: every live slot
// upserted under its own ID in ascending order. It is the reference the
// reload tests compare LoadCorpus against by CanonicalDump.
func replayLive(t *testing.T, corpus *recipedb.Store) *recipedb.Store {
	t.Helper()
	out := recipedb.NewStore(corpus.Catalog())
	for i := 0; i < corpus.Slots(); i++ {
		r := corpus.Recipe(i)
		if r.Deleted {
			continue
		}
		if _, _, _, err := out.Upsert(i, r.Name, r.Region, r.Source, r.Ingredients); err != nil {
			t.Fatalf("replaying slot %d: %v", i, err)
		}
	}
	return out
}

// TestMutatedCorpusRoundTrip is the restart story for the mutable
// corpus: save a snapshot, bind the store to the engine, mutate
// through the write-through path (upsert, delete, insert), reopen and
// reload — the reloaded corpus must match slot for slot, including the
// tombstoned gaps. The cases vary what the reload's Fold reads through:
// one segment, many segments with a Compact between the mutations, and
// a ReadOnly reopen (the mode inspection tools reload in).
func TestMutatedCorpusRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		open    Options
		compact bool
		reopen  Options
	}{
		{name: "oneSegment"},
		{name: "multiSegmentCompacted", open: Options{MaxSegmentBytes: 256}, compact: true},
		{name: "readOnlyReopen", open: Options{MaxSegmentBytes: 256}, reopen: Options{ReadOnly: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { testMutatedCorpusRoundTrip(t, tc.open, tc.compact, tc.reopen) })
	}
}

func testMutatedCorpusRoundTrip(t *testing.T, open Options, compact bool, reopen Options) {
	catalog := testCatalog(t)
	corpus := largeTestCorpus(t, catalog)
	r0 := corpus.Recipe(0)
	dir := t.TempDir()
	db, err := Open(dir, open)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(db, corpus); err != nil {
		t.Fatal(err)
	}
	corpus.SetBackend(db)

	// Mutate: replace slot 1, delete slot 2 and a spread of fillers,
	// append a new recipe.
	if _, _, _, err := corpus.Upsert(1, "replaced dish", recipedb.France, recipedb.Epicurious, r0.Ingredients); err != nil {
		t.Fatal(err)
	}
	for id := 2; id < corpus.Slots(); id += 3 {
		if _, err := corpus.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if compact {
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	newID, _, _, err := corpus.Upsert(-1, "appended dish", recipedb.Korea, recipedb.TarlaDalal, r0.Ingredients)
	if err != nil {
		t.Fatal(err)
	}
	if open.MaxSegmentBytes > 0 && db.Stats().Segments < 3 {
		t.Fatalf("snapshot spans %d segments, want a multi-segment log", db.Stats().Segments)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, reopen)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	loaded, err := LoadCorpus(db2, catalog)
	if err != nil {
		t.Fatalf("LoadCorpus after mutations: %v", err)
	}
	// The version record brings back what the live slots alone cannot:
	// the version the replaces and deletes reached and the slot bound.
	if got, want := loaded.CanonicalDump(), corpus.CanonicalDump(); got != want {
		t.Errorf("reloaded corpus differs from the corpus it was saved from:\n got %s\nwant %s", got, want)
	}
	if loaded.Len() != corpus.Len() || loaded.Slots() != corpus.Slots() {
		t.Fatalf("reload Len/Slots = %d/%d, want %d/%d",
			loaded.Len(), loaded.Slots(), corpus.Len(), corpus.Slots())
	}
	for i := 0; i < corpus.Slots(); i++ {
		a, b := corpus.Recipe(i), loaded.Recipe(i)
		if a.Deleted != b.Deleted {
			t.Errorf("slot %d deleted mismatch: %v vs %v", i, a.Deleted, b.Deleted)
			continue
		}
		if a.Deleted {
			continue
		}
		if a.Name != b.Name || a.Region != b.Region || a.Source != b.Source || a.Size() != b.Size() {
			t.Errorf("slot %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	if !loaded.Recipe(2).Deleted {
		t.Error("tombstoned slot 2 revived on reload")
	}
	if got := loaded.Recipe(newID); got.Name != "appended dish" || got.Region != recipedb.Korea {
		t.Errorf("appended recipe reloaded as %+v", got)
	}
	// Region indexes must be rebuilt consistently with the slots.
	if got := loaded.RegionRecipes(recipedb.France); len(got) == 0 {
		t.Error("replaced recipe missing from France index")
	}
}

// TestInterruptedSaveNeverLoadsShort fails each filesystem operation of
// a SaveCorpus in turn (plain EIO on even points, a torn write on odd
// ones), reopens the directory the way a restarted process would, and
// requires LoadCorpus to report "no usable snapshot" or return one of
// the complete corpora — never a prefix of the interrupted save. Both a
// first save and a save over a larger prior snapshot are swept, in
// chunks of 8 records so the faults land on both sides of the
// boundaries between the save's WriteBatch calls.
func TestInterruptedSaveNeverLoadsShort(t *testing.T) {
	catalog := testCatalog(t)
	small := testCorpus(t, catalog)
	large := largeTestCorpus(t, catalog)
	smallDump, largeDump := replayLive(t, small).CanonicalDump(), replayLive(t, large).CanonicalDump()

	for _, tc := range []struct {
		name  string
		prior *recipedb.Store // saved cleanly before the interrupted save
		save  *recipedb.Store
	}{
		{"firstSave", nil, large},
		{"overLargerSnapshot", large, small},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run performs the save with operation failAt failing and
			// returns how many operations the save attempted.
			run := func(failAt int) (dir string, ops int) {
				dir = t.TempDir()
				inj := NewErrInjector()
				db, err := Open(dir, Options{MaxSegmentBytes: 512, FaultInjection: inj})
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				if tc.prior != nil {
					if err := SaveCorpus(db, tc.prior); err != nil {
						t.Fatal(err)
					}
				}
				inj.FailOp(failAt, errInjectedIO, failAt%2 == 1)
				serr := saveCorpus(db, tc.save, 8)
				if inj.Injected() > 0 && serr == nil {
					t.Fatalf("op %d failed but SaveCorpus reported success", failAt)
				}
				return dir, inj.Ops()
			}
			_, total := run(1 << 30) // unreachable: count only
			if total < 20 {
				t.Fatalf("save took only %d fs operations; too few for a meaningful sweep", total)
			}
			for k := 0; k < total; k++ {
				dir, _ := run(k)
				db, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("op %d: reopen: %v", k, err)
				}
				loaded, err := LoadCorpus(db, catalog)
				switch {
				case errors.Is(err, ErrNotFound) || errors.Is(err, ErrSnapshot):
				case err != nil:
					t.Errorf("op %d: LoadCorpus: %v", k, err)
				default:
					if d := loaded.CanonicalDump(); d != smallDump && d != largeDump {
						t.Errorf("op %d: interrupted save reloaded as a partial corpus (%d recipes)", k, loaded.Len())
					}
				}
				db.Close()
			}
		})
	}
}

// TestReloadNeverRegressesTheVersion fails each filesystem operation of
// a write-through workload in turn (plain EIO on even points, a torn
// write on odd ones), so some write groups split mid-batch, then reloads
// the directory: the reloaded corpus must stand at a version no lower
// than any write the corpus acknowledged and at a slot bound no shorter,
// although the workload replaces and deletes (which leave fewer live
// recipes than versions) and deletes its top slots.
func TestReloadNeverRegressesTheVersion(t *testing.T) {
	catalog := testCatalog(t)
	// run drives the workload with operation failAt failing and returns
	// the highest version and slot bound it acknowledged.
	run := func(failAt int) (dir string, version uint64, slots, ops int) {
		dir = t.TempDir()
		inj := NewErrInjector()
		db, err := Open(dir, Options{MaxSegmentBytes: 512, SyncEveryPut: true, FaultInjection: inj})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		corpus := largeTestCorpus(t, catalog)
		if err := SaveCorpus(db, corpus); err != nil {
			t.Fatal(err)
		}
		corpus.SetBackend(db)
		version, slots = corpus.Version(), corpus.Slots()
		r0 := corpus.Recipe(0)
		inj.FailOp(failAt, errInjectedIO, failAt%2 == 1)
		for i := 0; i < 8; i++ {
			top := corpus.Slots() - 1
			for _, res := range corpus.ApplyBatch([]recipedb.BatchItem{
				{ID: i, Name: fmt.Sprintf("replaced %d", i), Region: recipedb.France, Source: recipedb.Epicurious, Ingredients: r0.Ingredients},
				{Remove: true, ID: top},
				{ID: -1, Name: fmt.Sprintf("inserted %d", i), Region: recipedb.Korea, Source: recipedb.AllRecipes, Ingredients: r0.Ingredients},
				{Remove: true, ID: top + 1},
			}) {
				if res.Err == nil {
					version, slots = max(version, res.Version), max(slots, res.ID+1)
				}
			}
		}
		return dir, version, slots, inj.Ops()
	}
	_, _, _, total := run(1 << 30) // unreachable: count only
	if total < 20 {
		t.Fatalf("the workload took only %d fs operations; too few for a meaningful sweep", total)
	}
	for k := 0; k < total; k++ {
		dir, version, slots, _ := run(k)
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("op %d: reopen: %v", k, err)
		}
		loaded, err := LoadCorpus(db, catalog)
		if err != nil {
			t.Fatalf("op %d: LoadCorpus: %v", k, err)
		}
		if loaded.Version() < version || loaded.Slots() < slots {
			t.Errorf("op %d: reloaded at version %d with %d slots; acknowledged version %d and %d slots",
				k, loaded.Version(), loaded.Slots(), version, slots)
		}
		db.Close()
	}
}

// referenceLoadCorpus is LoadCorpus's install step as it stood before
// recipedb.Load: every recipe the fold delivers goes through an Upsert
// write group of its own, and the version record, when there is one,
// then raises the slot bound and version. It defines the store a reload
// must produce.
func referenceLoadCorpus(db *Store, catalog *flavor.Catalog) (*recipedb.Store, error) {
	corpus := recipedb.NewStore(catalog)
	err := db.Fold(func(key string, raw []byte) error {
		if !strings.HasPrefix(key, recipePrefix) {
			return nil
		}
		id, ok := recipedb.ParseRecipeKey(key)
		if !ok {
			return fmt.Errorf("%w: recipe key %q", ErrSnapshot, key)
		}
		name, region, source, ids, err := decodeRecipe(raw)
		if err != nil {
			return fmt.Errorf("storage: recipe %s: %w", key, err)
		}
		if _, _, _, err := corpus.Upsert(id, name, region, source, ids); err != nil {
			return fmt.Errorf("storage: recipe %s: %w", key, err)
		}
		return nil
	})
	if err != nil {
		return corpus, err
	}
	if raw, err := db.Get(recipedb.VersionKey); err == nil {
		version, slots, err := recipedb.DecodeVersion(raw)
		if err != nil {
			return corpus, err
		}
		corpus.SyncSlots(slots)
		corpus.SyncVersion(version)
	}
	return corpus, nil
}

// TestLoadCorpusMatchesPerRecordUpserts holds the bulk install to the
// per-record loader on everything a reload publishes: the corpus dump
// (slots, tombstones, posting lists), version, slot bound, live count,
// and the search index built from it. The snapshots are fresh ones long
// enough to cross install-chunk boundaries, ones with deleted slots and
// gaps, multi-segment ones, and ones mutated through the write-through
// path and then compacted.
func TestLoadCorpusMatchesPerRecordUpserts(t *testing.T) {
	catalog := testCatalog(t)
	check := func(t *testing.T, db *Store) {
		t.Helper()
		want, err := referenceLoadCorpus(db, catalog)
		if err != nil {
			t.Fatalf("per-record load: %v", err)
		}
		got, err := LoadCorpus(db, catalog)
		if err != nil {
			t.Fatalf("LoadCorpus: %v", err)
		}
		if got.Version() != want.Version() || got.Slots() != want.Slots() || got.Len() != want.Len() {
			t.Fatalf("version/slots/len = %d/%d/%d, per-record load %d/%d/%d",
				got.Version(), got.Slots(), got.Len(), want.Version(), want.Slots(), want.Len())
		}
		if got.CanonicalDump() != want.CanonicalDump() {
			t.Fatal("corpus dump differs from the per-record load")
		}
		if !bytes.Equal(search.Build(got).CanonicalDump(), search.Build(want).CanonicalDump()) {
			t.Fatal("search index dump differs from the per-record load's")
		}
	}
	// thin tombstones every third slot and the top five, leaving gaps
	// inside the slot range and a reload that ends short of the bound.
	thin := func(t *testing.T, corpus *recipedb.Store) {
		t.Helper()
		for id := 1; id < corpus.Slots(); id++ {
			if id%3 == 0 || id >= corpus.Slots()-5 {
				if _, err := corpus.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	t.Run("fresh across chunks", func(t *testing.T) {
		corpus := testCorpus(t, catalog)
		r0, r1 := corpus.Recipe(0), corpus.Recipe(1)
		for i := 0; corpus.Len() < 2*loadChunkRecipes+100; i++ {
			r := r0
			if i%2 == 1 {
				r = r1
			}
			if _, err := corpus.Add(fmt.Sprintf("filler dish %d", i), recipedb.Region(i%5), recipedb.AllRecipes, r.Ingredients); err != nil {
				t.Fatal(err)
			}
		}
		db := openTemp(t, Options{})
		if err := SaveCorpus(db, corpus); err != nil {
			t.Fatal(err)
		}
		check(t, db)
		thin(t, corpus)
		if err := SaveCorpus(db, corpus); err != nil {
			t.Fatal(err)
		}
		check(t, db)
	})
	t.Run("deleted slots and gaps", func(t *testing.T) {
		corpus := largeTestCorpus(t, catalog)
		thin(t, corpus)
		db := openTemp(t, Options{})
		if err := SaveCorpus(db, corpus); err != nil {
			t.Fatal(err)
		}
		check(t, db)
	})
	t.Run("several segments, mutated, compacted", func(t *testing.T) {
		corpus := largeTestCorpus(t, catalog)
		r0 := corpus.Recipe(0)
		dir := t.TempDir()
		db, err := Open(dir, Options{MaxSegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveCorpus(db, corpus); err != nil {
			t.Fatal(err)
		}
		if db.Stats().Segments < 3 {
			t.Fatalf("snapshot spans %d segments, want several", db.Stats().Segments)
		}
		check(t, db)
		corpus.SetBackend(db)
		thin(t, corpus)
		if _, _, _, err := corpus.Upsert(1, "replaced dish", recipedb.France, recipedb.Epicurious, r0.Ingredients); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := corpus.Upsert(corpus.Slots()+7, "far dish", recipedb.Korea, recipedb.TarlaDalal, r0.Ingredients); err != nil {
			t.Fatal(err)
		}
		check(t, db)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		check(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		ro, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		check(t, ro)
	})
}

// TestLoadCorpusRejectsInvalidRecipe plants one recipe the corpus
// invariants forbid in an otherwise sound snapshot: the reload must fail
// exactly as the per-record loader does, naming the same key.
func TestLoadCorpusRejectsInvalidRecipe(t *testing.T) {
	catalog := testCatalog(t)
	good := testCorpus(t, catalog).Recipe(0)
	for name, ingredients := range map[string][]flavor.ID{
		"duplicate ingredient": {good.Ingredients[0], good.Ingredients[1], good.Ingredients[0]},
		"id outside catalog":   {good.Ingredients[0], flavor.ID(catalog.Len())},
		"one ingredient":       {good.Ingredients[0]},
	} {
		t.Run(name, func(t *testing.T) {
			db := openTemp(t, Options{})
			if err := SaveCorpus(db, largeTestCorpus(t, catalog)); err != nil {
				t.Fatal(err)
			}
			bad := recipedb.Recipe{Name: "bad dish", Region: good.Region, Source: good.Source, Ingredients: ingredients}
			if err := db.Put(recipedb.RecipeKey(17), recipedb.EncodeRecipe(&bad)); err != nil {
				t.Fatal(err)
			}
			_, want := referenceLoadCorpus(db, catalog)
			_, got := LoadCorpus(db, catalog)
			if !errors.Is(got, recipedb.ErrValidation) || want == nil || got.Error() != want.Error() {
				t.Fatalf("LoadCorpus = %v, per-record load = %v", got, want)
			}
			if !strings.Contains(got.Error(), recipedb.RecipeKey(17)) {
				t.Fatalf("error %q does not name the recipe's key", got)
			}
		})
	}
}
