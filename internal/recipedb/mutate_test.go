package recipedb

import (
	"errors"
	"reflect"
	"testing"

	"culinary/internal/flavor"
)

func ids(t *testing.T, names ...string) []flavor.ID {
	t.Helper()
	out := make([]flavor.ID, len(names))
	for i, n := range names {
		out[i] = mustID(t, n)
	}
	return out
}

func TestVersionBumpsOnEveryMutation(t *testing.T) {
	s := NewStore(testCatalog)
	if s.Version() != 0 {
		t.Fatalf("fresh store version = %d", s.Version())
	}
	addRecipe(t, s, "a", Italy, "tomato", "basil")
	if s.Version() != 1 {
		t.Fatalf("after Add version = %d", s.Version())
	}
	if _, v, created, err := s.Upsert(0, "a2", France, AllRecipes, ids(t, "butter", "cream")); err != nil || v != 2 || created {
		t.Fatalf("Upsert: v=%d err=%v", v, err)
	}
	if v, err := s.Remove(0); err != nil || v != 3 {
		t.Fatalf("Remove: v=%d err=%v", v, err)
	}
	// Failed mutations must not bump the version.
	if _, _, _, err := s.Upsert(-1, "bad", World, AllRecipes, ids(t, "tomato", "basil")); err == nil {
		t.Fatal("World region accepted")
	}
	if _, err := s.Remove(0); !errors.Is(err, ErrNoRecipe) {
		t.Fatalf("double Remove: %v", err)
	}
	if s.Version() != 3 {
		t.Fatalf("failed mutations moved version to %d", s.Version())
	}
}

func TestUpsertRewritesIndexes(t *testing.T) {
	s := NewStore(testCatalog)
	a := addRecipe(t, s, "a", Italy, "tomato", "basil")
	b := addRecipe(t, s, "b", Italy, "tomato", "mozzarella cheese")
	c := addRecipe(t, s, "c", France, "butter", "cream")

	// Move recipe a from Italy/tomato-basil to France/butter-garlic.
	if _, _, created, err := s.Upsert(a, "a", France, AllRecipes, ids(t, "butter", "garlic")); err != nil || created {
		t.Fatalf("Upsert: %v", err)
	}
	if got := s.RegionRecipes(Italy); !reflect.DeepEqual(got, []int{b}) {
		t.Errorf("Italy = %v, want [%d]", got, b)
	}
	if got := s.RegionRecipes(France); !reflect.DeepEqual(got, []int{a, c}) {
		t.Errorf("France = %v, want sorted [%d %d]", got, a, c)
	}
	if got := s.IngredientRecipes(mustID(t, "tomato")); !reflect.DeepEqual(got, []int{b}) {
		t.Errorf("tomato postings = %v, want [%d]", got, b)
	}
	if got := s.IngredientRecipes(mustID(t, "butter")); !reflect.DeepEqual(got, []int{a, c}) {
		t.Errorf("butter postings = %v, want sorted [%d %d]", got, a, c)
	}
	if got := s.IngredientRecipes(mustID(t, "basil")); len(got) != 0 {
		t.Errorf("basil postings = %v, want empty", got)
	}
}

func TestRemoveTombstonesSlot(t *testing.T) {
	s := NewStore(testCatalog)
	a := addRecipe(t, s, "a", Italy, "tomato", "basil")
	b := addRecipe(t, s, "b", France, "butter", "cream")
	if _, err := s.Remove(a); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if s.Len() != 1 || s.Slots() != 2 {
		t.Fatalf("Len/Slots = %d/%d, want 1/2", s.Len(), s.Slots())
	}
	if !s.Recipe(a).Deleted {
		t.Error("slot not tombstoned")
	}
	if got := s.RegionRecipes(World); !reflect.DeepEqual(got, []int{b}) {
		t.Errorf("RegionRecipes(World) = %v", got)
	}
	if s.RegionLen(World) != 1 || s.RegionLen(Italy) != 0 {
		t.Errorf("RegionLen World/Italy = %d/%d", s.RegionLen(World), s.RegionLen(Italy))
	}
	seen := 0
	s.Read(func(*View) { walkRegionLocked(s, World, func(*Recipe) { seen++ }) })
	if seen != 1 {
		t.Errorf("World iteration visited %d recipes", seen)
	}
	// New inserts claim fresh slots, never the tombstoned one.
	c := addRecipe(t, s, "c", Italy, "pasta", "parmesan cheese")
	if c != 2 {
		t.Errorf("insert reused slot: id %d", c)
	}
	// Upserting the tombstoned slot explicitly revives it.
	if _, _, created, err := s.Upsert(a, "a2", Italy, AllRecipes, ids(t, "tomato", "garlic")); err != nil || !created {
		t.Fatalf("revive: %v", err)
	}
	if s.Len() != 3 || s.Recipe(a).Deleted {
		t.Errorf("revive failed: len=%d deleted=%v", s.Len(), s.Recipe(a).Deleted)
	}
}

func TestUpsertBeyondSlotsTombstonesGaps(t *testing.T) {
	s := NewStore(testCatalog)
	if _, _, created, err := s.Upsert(3, "sparse", Italy, AllRecipes, ids(t, "tomato", "basil")); err != nil || !created {
		t.Fatalf("Upsert(3): %v", err)
	}
	if s.Slots() != 4 || s.Len() != 1 {
		t.Fatalf("Slots/Len = %d/%d, want 4/1", s.Slots(), s.Len())
	}
	for i := 0; i < 3; i++ {
		if !s.Recipe(i).Deleted {
			t.Errorf("gap slot %d not tombstoned", i)
		}
	}
	if s.Recipe(3).Name != "sparse" {
		t.Errorf("slot 3 = %+v", s.Recipe(3))
	}
}

func TestBackendWriteThrough(t *testing.T) {
	s := NewStore(testCatalog)
	backend := &stateBackend{}
	s.SetBackend(backend)

	id := addRecipe(t, s, "a", Italy, "tomato", "basil")
	raw, ok := backend.snapshot()[RecipeKey(id)]
	if !ok {
		t.Fatalf("Add did not write through; state = %v", backend.snapshot())
	}
	name, region, source, ingr, err := DecodeRecipe([]byte(raw))
	if err != nil || name != "a" || region != Italy || source != AllRecipes || len(ingr) != 2 {
		t.Fatalf("persisted bytes decode to %q/%v/%v/%v (err %v)", name, region, source, ingr, err)
	}
	if _, err := s.Remove(id); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// Every write group carries the version record: after the insert and
	// the delete, version 2 over one slot.
	if got := backend.snapshot(); len(got) != 2 || got[RecipeKey(id)] != tombMark ||
		got[VersionKey] != string(EncodeVersion(2, 1)) {
		t.Fatalf("Remove did not write a tombstone and the version record through; state = %v", got)
	}

	// A failing backend must leave the in-memory corpus and version
	// untouched. The version record leads the group, so a fault on the
	// recipe record behind it leaves the record at the bound the group
	// planned: ahead of the corpus, never behind it.
	v := s.Version()
	full := errors.New("disk full")
	backend.arm(RecipeKey(id+1), full) // the slot the next insert takes
	if _, _, _, err := s.Upsert(-1, "b", France, AllRecipes, ids(t, "butter", "cream")); !errors.Is(err, full) {
		t.Fatalf("Upsert with failing backend = %v, want the backend's error", err)
	}
	if s.Version() != v || s.Len() != 0 {
		t.Errorf("failed write mutated corpus: version %d->%d, len %d", v, s.Version(), s.Len())
	}
	if got := backend.snapshot()[VersionKey]; got != string(EncodeVersion(3, 2)) {
		t.Errorf("version record after the split group = %q, want the planned bound %q", got, EncodeVersion(3, 2))
	}

	// SyncVersion and SyncSlots move a store with a backend only once
	// their record is durable.
	if err := s.SyncVersion(10); err != nil || backend.snapshot()[VersionKey] != string(EncodeVersion(10, 1)) {
		t.Fatalf("SyncVersion(10) = %v; version record %q", err, backend.snapshot()[VersionKey])
	}
	backend.arm(VersionKey, full)
	if err := s.SyncSlots(5); !errors.Is(err, full) || s.Slots() != 1 {
		t.Errorf("SyncSlots over a failing backend = %v with %d slots; want the error and 1 slot", err, s.Slots())
	}
	if err := s.SyncVersion(11); !errors.Is(err, full) || s.Version() != 10 {
		t.Errorf("SyncVersion over a failing backend = %v at version %d; want the error at 10", err, s.Version())
	}
}

func TestVersionRecordRoundTrip(t *testing.T) {
	for _, c := range []struct {
		v     uint64
		slots int
	}{{0, 0}, {1, 1}, {45772, 45780}, {1 << 40, 1<<31 - 1}} {
		v, slots, err := DecodeVersion(EncodeVersion(c.v, c.slots))
		if err != nil || v != c.v || slots != c.slots {
			t.Errorf("round trip of (%d, %d) = (%d, %d, %v)", c.v, c.slots, v, slots, err)
		}
	}
	for _, bad := range [][]byte{nil, {0x80}, {1}, {1, 2, 3}, EncodeVersion(1, 1<<31)} {
		if _, _, err := DecodeVersion(bad); !errors.Is(err, ErrCodec) {
			t.Errorf("DecodeVersion(%x) = %v, want ErrCodec", bad, err)
		}
	}
}

// TestReadViewConsistency checks that a Read callback observes one
// (version, snapshot) pair even while writers mutate.
func TestReadViewConsistency(t *testing.T) {
	s := NewStore(testCatalog)
	addRecipe(t, s, "a", Italy, "tomato", "basil")
	addRecipe(t, s, "b", France, "butter", "cream")
	s.Read(func(v *View) {
		if v.Version != s.Version() {
			t.Errorf("view version %d != store version %d", v.Version, s.Version())
		}
		if v.Len() != 2 || v.Slots() != 2 {
			t.Errorf("view Len/Slots = %d/%d", v.Len(), v.Slots())
		}
		n := 0
		walkRegionLocked(s, World, func(*Recipe) { n++ })
		if n != v.Len() {
			t.Errorf("view iteration saw %d, Len %d", n, v.Len())
		}
	})
}
