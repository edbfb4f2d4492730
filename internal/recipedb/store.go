package recipedb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"culinary/internal/fanin"
	"culinary/internal/flavor"
	"culinary/internal/stats"
)

// Recipe is one traditional recipe reduced, as in §III.A, to an
// unordered list of catalog ingredient IDs plus provenance metadata.
type Recipe struct {
	// ID is the recipe's dense index within its Store.
	ID int
	// Name is the recipe title.
	Name string
	// Region is the geo-cultural region the recipe is annotated with.
	Region Region
	// Source records which recipe site the recipe came from.
	Source Source
	// Ingredients are catalog IDs; duplicates are not permitted.
	Ingredients []flavor.ID
	// Deleted marks a tombstoned slot: the recipe was removed but its
	// ID stays reserved so the corpus keeps dense, stable IDs. Deleted
	// recipes are absent from every index and skipped by iteration.
	Deleted bool
}

// Size returns the number of ingredients in the recipe.
func (r Recipe) Size() int { return len(r.Ingredients) }

// Contains reports whether the recipe uses the ingredient.
func (r Recipe) Contains(id flavor.ID) bool {
	for _, ing := range r.Ingredients {
		if ing == id {
			return true
		}
	}
	return false
}

// Store errors.
var (
	// ErrValidation wraps recipe validation failures.
	ErrValidation = errors.New("recipedb: invalid recipe")
	// ErrNoRecipe is returned by mutations addressing an absent slot.
	ErrNoRecipe = errors.New("recipedb: no such recipe")
)

// Mutation describes one applied corpus change, delivered to
// subscribers synchronously under the write lock. Old is the live
// recipe the mutation displaced (nil on insert), New the recipe now in
// the slot (nil on delete). Both are value copies whose Ingredients
// slices the store never writes again, so they may be read after
// delivery — but not mutated, since Old shares its slice with copies
// readers may hold.
type Mutation struct {
	// Version is the corpus version this mutation produced.
	Version uint64
	// ID is the slot the mutation addressed.
	ID  int
	Old *Recipe
	New *Recipe
}

// Subscribe registers fn to observe every subsequent mutation. Both
// init and the registration happen atomically under the write lock:
// init sees a consistent corpus snapshot and no mutation between that
// snapshot and the first fn delivery can be missed — the gap a
// derived index would otherwise have to re-scan for. Subscribers run
// synchronously inside the mutation critical section, so fn must be
// fast, must not call back into the Store, and must do its own locking
// against the subscriber's readers. init may be nil.
//
// When a write batch coalesces several mutations, fn is called once
// per mutation in version order; subscribers that can amortize
// per-batch work (one lock acquisition, one rebuild nudge) should use
// SubscribeBatch instead.
func (s *Store) Subscribe(init func(v *View), fn func(Mutation)) {
	s.SubscribeBatch(init, func(ms []Mutation) {
		for _, m := range ms {
			fn(m)
		}
	})
}

// SubscribeBatch is Subscribe for batch-aware consumers: fn receives
// every mutation of one coalesced write batch in a single call, still
// synchronously inside the mutation critical section and in version
// order (ms is sorted by Version, and successive calls never overlap
// or reorder). A single-item write delivers a one-element batch.
func (s *Store) SubscribeBatch(init func(v *View), fn func(ms []Mutation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if init != nil {
		init(&View{s: s, Version: s.version.Load()})
	}
	s.subs = append(s.subs, fn)
}

// notifyLocked delivers one batch of mutations to every subscriber.
// Callers hold s.mu exclusively and publish the atomic version only
// AFTER this returns, so lock-free Version() observers never see a
// version whose mutations a subscriber has not yet processed.
func (s *Store) notifyLocked(ms []Mutation) {
	if len(ms) == 0 {
		return
	}
	for _, fn := range s.subs {
		fn(ms)
	}
}

// Store is an in-memory recipe corpus with region and ingredient
// indexes. It is safe for concurrent use: reads take a shared lock,
// mutations (Add, Upsert, Remove) serialize behind an exclusive lock
// and bump an atomically-published corpus version. Multi-call readers
// that need one consistent (version, snapshot) pair — e.g. a full
// query execution — run inside Read.
type Store struct {
	mu      sync.RWMutex
	version atomic.Uint64

	catalog      *flavor.Catalog
	recipes      []Recipe
	live         int // slots minus tombstones
	byRegion     map[Region][]int
	byIngredient map[flavor.ID][]int
	// counts are each region's sums over its live recipes, World's over
	// every live recipe. Only the three posting-list patch functions
	// change them, so they describe the corpus the lists describe.
	counts [numRegions]regionCounts

	// persist, when set, receives every mutation before the in-memory
	// state changes (write-through): a failed write leaves the corpus
	// untouched.
	persist BatchBackend

	// subs are mutation subscribers, notified synchronously under the
	// write lock so derived state observes mutations in version order
	// and is current before the mutation is acknowledged. Each receives
	// one call per coalesced write batch.
	subs []func([]Mutation)

	// writes groups concurrent Upsert/Remove/ApplyBatch calls; its token
	// holder runs applyGroup (batch.go) and is the only goroutine
	// mutating corpus state. bstats is the coalescing telemetry for
	// /api/health.
	writes *fanin.Queue[*writeOp]
	bstats batchStats
}

// NewStore creates an empty store bound to an ingredient catalog.
func NewStore(catalog *flavor.Catalog) *Store {
	return &Store{
		catalog:      catalog,
		byRegion:     make(map[Region][]int),
		byIngredient: make(map[flavor.ID][]int),
		writes:       fanin.New[*writeOp](),
	}
}

// SetBackend attaches a persistence backend. Subsequent mutations
// write through to it before updating the in-memory corpus. Writers
// that arrive concurrently coalesce into one WriteBatch call (see
// batch.go).
//
// A backend that also has a Bind(*Store) method is told which corpus it
// persists: storage's checkpoints image the corpus they are bound to.
func (s *Store) SetBackend(b BatchBackend) {
	s.mu.Lock()
	s.persist = b
	s.mu.Unlock()
	if binder, ok := b.(interface{ Bind(*Store) }); ok {
		binder.Bind(s)
	}
}

// Catalog returns the ingredient catalog the store is bound to. The
// catalog is immutable, so no locking applies.
func (s *Store) Catalog() *flavor.Catalog { return s.catalog }

// Version returns the corpus version: a counter bumped by every
// successful mutation. It is safe to read without any lock, so cache
// layers can fence entries against it cheaply.
func (s *Store) Version() uint64 { return s.version.Load() }

// SyncVersion raises the corpus version to at least v without changing
// any recipe: a reload lands on the version its snapshot recorded
// (storage.LoadCorpus), and a replica follower on the primary's version
// once it holds every change up to it (its own write groups count only
// the mutations that changed a slot, so they can stop short of the
// primary's number). Subscribers receive one
// content-free Mutation{Version: v} (nil Old and New) so derived state
// that fences on the corpus version — the search index — advances its
// version stamp with it. With a backend
// attached the new version record is written through first, and a
// failed write leaves the version where it was. Lower or equal v is a
// no-op.
func (s *Store) SyncVersion(v uint64) error {
	s.writes.Lock() // the write token: no write group plans beside this
	defer s.writes.Unlock()
	if v <= s.version.Load() {
		return nil
	}
	if err := s.persistVersion(v, s.Slots()); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.notifyLocked([]Mutation{{Version: v}})
	s.version.Store(v)
	return nil
}

// SyncSlots extends the slot table to at least n slots with tombstones,
// changing no live recipe and no version. A reload carries only live
// recipes, so a corpus whose highest slots were all tombstoned reloads
// short of its slot bound; restoring the recorded bound here keeps
// Slots(), the next free slot and CanonicalDump what they were. With a
// backend attached the new bound is written through first, as in
// SyncVersion. Lower or equal n is a no-op.
func (s *Store) SyncSlots(n int) error {
	s.writes.Lock()
	defer s.writes.Unlock()
	if n <= s.Slots() {
		return nil
	}
	if err := s.persistVersion(s.version.Load(), n); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.recipes) < n {
		s.recipes = append(s.recipes, Recipe{ID: len(s.recipes), Deleted: true})
	}
	return nil
}

// Quiesce runs fn on a view of the corpus while holding the write token,
// so no write group plans, persists or applies until fn returns: every
// record the backend has acknowledged is in the view, and nothing fn
// sees changes under it. It is how storage images the corpus into a
// checkpoint and starts an empty log after it. Reads proceed beside fn;
// writers wait for it.
func (s *Store) Quiesce(fn func(v *View) error) error {
	s.writes.Lock()
	defer s.writes.Unlock()
	var err error
	s.Read(func(v *View) { err = fn(v) })
	return err
}

// persistVersion writes a version record through the backend, when one
// is attached. Callers hold the write token.
func (s *Store) persistVersion(v uint64, slots int) error {
	s.mu.RLock()
	backend := s.persist
	s.mu.RUnlock()
	if backend == nil {
		return nil
	}
	if err := backend.WriteBatch([]string{VersionKey}, [][]byte{EncodeVersion(v, slots)}, []bool{false})[0]; err != nil {
		return fmt.Errorf("recipedb: persisting version %d: %w", v, err)
	}
	return nil
}

// View is a lock-free window onto the corpus, valid only inside the
// Read callback that produced it. Its accessors mirror the Store read
// API without re-locking, so a reader holding the view sees one
// consistent (Version, snapshot) pair for its whole critical section.
// Pointers obtained through a View must not escape the callback.
type View struct {
	s *Store
	// Version is the corpus version this view observes.
	Version uint64
}

// Read runs fn against a consistent snapshot of the corpus. The shared
// lock is held for the duration, so mutations observed by Version are
// fully excluded — fn sees the exact corpus state version v describes.
func (s *Store) Read(fn func(v *View)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(&View{s: s, Version: s.version.Load()})
}

// Len returns the number of live recipes.
func (v *View) Len() int { return v.s.live }

// Slots returns the recipe ID bound (live + tombstoned slots).
func (v *View) Slots() int { return len(v.s.recipes) }

// Recipe returns the recipe in slot id. The pointer is valid only
// inside the enclosing Read callback.
func (v *View) Recipe(id int) *Recipe { return &v.s.recipes[id] }

// IngredientRecipes returns the posting list of the ingredient in
// ascending-ID order. It is the store's own list, which mutations patch
// in place: do not mutate it or retain it past the callback.
func (v *View) IngredientRecipes(id flavor.ID) []int { return v.s.byIngredient[id] }

// RegionRecipes returns the live recipe IDs of the region in
// ascending-ID order; World has no list and returns nil. Like
// IngredientRecipes it is the store's own list, patched in place by
// mutations: do not mutate it or retain it past the callback.
func (v *View) RegionRecipes(r Region) []int { return v.s.byRegion[r] }

// RegionLen returns the number of live recipes in the region; World
// counts every live recipe.
func (v *View) RegionLen(r Region) int {
	if r == World {
		return v.s.live
	}
	return len(v.s.byRegion[r])
}

// RegionIngredients returns the number of distinct ingredients the
// region's live recipes use (Table 1's unique-ingredient count).
func (v *View) RegionIngredients(r Region) int { return v.s.counts[r].distinct }

// RegionUses returns the region's Σ recipe size and the number of its
// live recipes using each catalog ingredient, by ID; World pools every
// region. The row is the store's own counter, patched in place by
// mutations: do not mutate it or retain it past the callback. A region
// that never held a recipe has a nil row.
func (v *View) RegionUses(r Region) (size int, uses []int32) {
	c := &v.s.counts[r]
	return c.size, c.uses
}

// ForEachInRegion calls fn for every live recipe in the region (every
// live recipe when r == World), in ascending-ID order.
func (v *View) ForEachInRegion(r Region, fn func(*Recipe)) {
	v.s.forEachInRegionLocked(r, fn)
}

// RegionPage calls fn for the live recipes at positions [offset,
// offset+limit) of the region's ascending-ID order (every live recipe's
// when r == World). A region's page is sliced from its list; World
// walks the slots only up to the page's end.
func (v *View) RegionPage(r Region, offset, limit int, fn func(*Recipe)) {
	s := v.s
	if r != World {
		ids := s.byRegion[r]
		if offset >= len(ids) {
			return
		}
		for _, id := range ids[offset:min(len(ids), offset+limit)] {
			fn(&s.recipes[id])
		}
		return
	}
	for i := 0; i < len(s.recipes) && limit > 0; i++ {
		switch {
		case s.recipes[i].Deleted:
		case offset > 0:
			offset--
		default:
			fn(&s.recipes[i])
			limit--
		}
	}
}

// Catalog returns the (immutable) ingredient catalog.
func (v *View) Catalog() *flavor.Catalog { return v.s.catalog }

// LiveIDs returns the IDs of every live recipe, ascending.
func (v *View) LiveIDs() []int { return v.s.liveIDsLocked() }

// Regions returns the regions with at least one live recipe, sorted.
func (v *View) Regions() []Region { return v.s.regionsLocked() }

// BuildCuisine assembles the region's analytical view against this
// snapshot; World pools every recipe. The result is self-contained and
// safe to retain past the callback.
func (v *View) BuildCuisine(r Region) *Cuisine { return v.s.buildCuisineLocked(r) }

// forEachInRegionLocked iterates live recipes; callers hold s.mu.
func (s *Store) forEachInRegionLocked(r Region, fn func(*Recipe)) {
	if r == World {
		for i := range s.recipes {
			if !s.recipes[i].Deleted {
				fn(&s.recipes[i])
			}
		}
		return
	}
	for _, id := range s.byRegion[r] {
		fn(&s.recipes[id])
	}
}

// Validate enforces the corpus invariants every stored recipe meets: a
// known region and source, at least two ingredients (a pairing analysis
// needs pairs), no duplicate ingredients, and every ingredient ID within
// the catalog. Writes check it themselves; it is exported for callers
// that must know a whole batch is valid before applying any of it.
func (s *Store) Validate(name string, region Region, source Source, ingredients []flavor.ID) error {
	if !region.Valid() || region == World {
		return fmt.Errorf("%w: bad region %d", ErrValidation, region)
	}
	if !source.Valid() {
		return fmt.Errorf("%w: bad source %d", ErrValidation, source)
	}
	if len(ingredients) < 2 {
		return fmt.Errorf("%w: recipe %q has %d ingredients, need >= 2", ErrValidation, name, len(ingredients))
	}
	// The duplicate check rescans the prefix instead of building a set:
	// recipes hold a dozen ingredients, and since every ID was just
	// checked to be inside the catalog a repeat must turn up within
	// catalog.Len()+1 entries, so even a hostile list costs a bounded
	// number of compares and no allocation.
	for i, id := range ingredients {
		if id < 0 || int(id) >= s.catalog.Len() {
			return fmt.Errorf("%w: recipe %q ingredient %d outside catalog", ErrValidation, name, id)
		}
		for _, prev := range ingredients[:i] {
			if prev == id {
				return fmt.Errorf("%w: recipe %q repeats ingredient %q", ErrValidation, name, s.catalog.Ingredient(id).Name)
			}
		}
	}
	return nil
}

// Add validates and appends a recipe, returning its assigned ID.
func (s *Store) Add(name string, region Region, source Source, ingredients []flavor.ID) (int, error) {
	id, _, _, err := s.Upsert(-1, name, region, source, ingredients)
	return id, err
}

// Upsert inserts or replaces one recipe and returns its ID, the new
// corpus version, and whether a new live recipe was created (false
// means a live recipe was replaced; the flag is decided inside the
// write critical section, so it is race-free). id < 0 assigns the next
// free slot; id < Slots() replaces that slot (reviving it if
// tombstoned); id >= Slots() extends the corpus, tombstoning any
// intermediate slots — the sparse-snapshot reload path. When a Backend
// is attached the mutation is persisted first; a persistence error
// leaves the in-memory corpus unchanged. Concurrent callers coalesce
// through the writer fan-in (batch.go) into one critical section and
// one backend group commit.
func (s *Store) Upsert(id int, name string, region Region, source Source, ingredients []flavor.ID) (int, uint64, bool, error) {
	op := &writeOp{
		id: id, name: name, region: region, source: source,
		ingredients: append([]flavor.ID(nil), ingredients...),
	}
	s.writes.Do([]*writeOp{op}, s.applyGroup)
	if op.err != nil {
		return 0, 0, false, op.err
	}
	return op.outID, op.version, op.outcome == OutcomeCreated, nil
}

// Remove tombstones the recipe in slot id and returns the new corpus
// version. The slot stays reserved so later recipe IDs keep their
// meaning. Persistence, when attached, happens first. Like Upsert,
// concurrent Removes coalesce through the writer fan-in.
func (s *Store) Remove(id int) (uint64, error) {
	op := &writeOp{remove: true, id: id}
	s.writes.Do([]*writeOp{op}, s.applyGroup)
	if op.err != nil {
		return 0, op.err
	}
	return op.version, nil
}

// indexLocked adds rec's ID to the region and ingredient posting
// lists and rec to the region counters. Lists are patched in place
// under the exclusive lock, so they may be read only under s.mu: every
// reader does (the View accessors, forEachInRegionLocked,
// buildCuisineLocked, CanonicalDump), and the two accessors that hand a
// list past the lock return a copy.
func (s *Store) indexLocked(rec *Recipe) {
	s.tallyLocked(rec, 1)
	s.byRegion[rec.Region] = insertSorted(s.byRegion[rec.Region], rec.ID)
	for _, ing := range rec.Ingredients {
		s.byIngredient[ing] = insertSorted(s.byIngredient[ing], rec.ID)
	}
}

// unindexLocked removes rec's ID from every posting list it is on and
// rec from the region counters.
func (s *Store) unindexLocked(rec *Recipe) {
	s.tallyLocked(rec, -1)
	s.byRegion[rec.Region] = removeSorted(s.byRegion[rec.Region], rec.ID)
	for _, ing := range rec.Ingredients {
		s.byIngredient[ing] = removeSorted(s.byIngredient[ing], rec.ID)
	}
}

// reindexLocked moves slot old.ID from old's posting lists to rec's
// (rec.ID == old.ID), patching only the lists that differ: the region
// lists when the region changed, and the lists of ingredients in one
// recipe but not the other. A recipe holds about a dozen IDs, so the
// nested membership scans cost less than any set would. The counters
// take old out and rec in whole: integer adds are cheaper than the
// scans that would find the difference.
func (s *Store) reindexLocked(old, rec *Recipe) {
	s.tallyLocked(old, -1)
	s.tallyLocked(rec, 1)
	if old.Region != rec.Region {
		s.byRegion[old.Region] = removeSorted(s.byRegion[old.Region], old.ID)
		s.byRegion[rec.Region] = insertSorted(s.byRegion[rec.Region], rec.ID)
	}
	for _, ing := range old.Ingredients {
		if !rec.Contains(ing) {
			s.byIngredient[ing] = removeSorted(s.byIngredient[ing], old.ID)
		}
	}
	for _, ing := range rec.Ingredients {
		if !old.Contains(ing) {
			s.byIngredient[ing] = insertSorted(s.byIngredient[ing], rec.ID)
		}
	}
}

// insertSorted adds id to an ascending list in place (idempotent); it
// allocates only when the list outgrows its capacity.
func insertSorted(list []int, id int) []int {
	if len(list) == 0 || id > list[len(list)-1] {
		return append(list, id) // corpus build: IDs arrive ascending
	}
	i, found := slices.BinarySearch(list, id)
	if found {
		return list
	}
	return slices.Insert(list, i, id)
}

// removeSorted drops id from an ascending list in place (idempotent).
func removeSorted(list []int, id int) []int {
	i, found := slices.BinarySearch(list, id)
	if !found {
		return list
	}
	return slices.Delete(list, i, i+1)
}

// regionCounts are one region's exact integer sums over its live
// recipes: everything a region page reports is derived from them.
type regionCounts struct {
	size     int // Σ recipe size: the region's ingredient slots
	distinct int // ingredients with uses > 0
	// uses counts the recipes using each catalog ingredient, by ID. It
	// is allocated with the region's first recipe, so a store holding
	// one region (a generator's calibration trial) carries two arrays,
	// not 27.
	uses []int32
}

// tallyLocked adds rec to (delta 1) or takes it out of (delta -1) the
// counters of its region and of World.
func (s *Store) tallyLocked(rec *Recipe, delta int32) {
	for _, c := range [2]*regionCounts{&s.counts[rec.Region], &s.counts[World]} {
		if c.uses == nil {
			c.uses = make([]int32, s.catalog.Len())
		}
		c.size += int(delta) * len(rec.Ingredients)
		for _, ing := range rec.Ingredients {
			before := c.uses[ing]
			c.uses[ing] = before + delta
			switch {
			case before == 0:
				c.distinct++
			case before+delta == 0:
				c.distinct--
			}
		}
	}
}

// IngredientRecipes returns the IDs of live recipes containing the
// ingredient, in ascending-ID order. The slice is a copy taken under
// the shared lock: the store's own list is patched in place by later
// mutations, this one never changes.
func (s *Store) IngredientRecipes(id flavor.ID) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.byIngredient[id])
}

// Len returns the number of live recipes.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Slots returns the recipe ID bound: live recipes plus tombstoned
// slots. Recipe accepts any id in [0, Slots()).
func (s *Store) Slots() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recipes)
}

// Recipe returns a copy of the recipe in slot id (check Deleted when
// the corpus may have been mutated). The copy's Ingredients slice is
// never written again by the store, so it is safe to read after the
// call returns.
func (s *Store) Recipe(id int) Recipe {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recipes[id]
}

// IngredientLists returns the ingredient lists of the given recipes
// under one shared-lock acquisition — the bulk accessor for analysis
// loops that would otherwise lock per recipe. The inner slices are the
// store's own: mutations never write them in place (Upsert installs
// fresh slices), so they are safe to read after the call, but must not
// be mutated. They describe the corpus as of this call.
func (s *Store) IngredientLists(ids []int) [][]flavor.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([][]flavor.ID, len(ids))
	for i, id := range ids {
		out[i] = s.recipes[id].Ingredients
	}
	return out
}

// LiveIDs returns the IDs of every live recipe, ascending.
func (s *Store) LiveIDs() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveIDsLocked()
}

func (s *Store) liveIDsLocked() []int {
	out := make([]int, 0, s.live)
	for i := range s.recipes {
		if !s.recipes[i].Deleted {
			out = append(out, i)
		}
	}
	return out
}

// RegionLen returns the number of live recipes in the region; World
// counts every live recipe.
func (s *Store) RegionLen(r Region) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r == World {
		return s.live
	}
	return len(s.byRegion[r])
}

// Regions returns the regions present in the store, sorted.
func (s *Store) Regions() []Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.regionsLocked()
}

func (s *Store) regionsLocked() []Region {
	out := make([]Region, 0, len(s.byRegion))
	for r := range s.byRegion {
		if len(s.byRegion[r]) > 0 {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEachInRegion calls fn for every live recipe in the region (every
// live recipe when r == World), in ascending-ID order. The shared lock
// is held across the iteration: fn must not call mutating methods, and
// the *Recipe must not be retained past the callback.
func (s *Store) ForEachInRegion(r Region, fn func(*Recipe)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.forEachInRegionLocked(r, fn)
}

// RegionRecipes returns the live recipe IDs of a region, ascending, as
// a copy taken under the shared lock (the caller owns it). World
// returns nil (iterate instead).
func (s *Store) RegionRecipes(r Region) []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if r == World {
		return nil
	}
	return slices.Clone(s.byRegion[r])
}

// Cuisine is the per-region analytical view used by the pairing package
// and the experiment drivers: the recipes of one region plus cached
// statistics.
type Cuisine struct {
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

// BuildCuisine assembles the analytical view of a region; World pools
// every recipe. The view is a self-contained snapshot: later store
// mutations do not alter it (though its RecipeIDs then describe the
// corpus as of the build).
func (s *Store) BuildCuisine(r Region) *Cuisine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.buildCuisineLocked(r)
}

func (s *Store) buildCuisineLocked(r Region) *Cuisine {
	c := &Cuisine{
		Region:         r,
		IngredientFreq: make(map[flavor.ID]int),
	}
	s.forEachInRegionLocked(r, func(rec *Recipe) {
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

// NumRecipes returns the cuisine's recipe count.
func (c *Cuisine) NumRecipes() int { return len(c.RecipeIDs) }

// NumUniqueIngredients returns the count of distinct ingredients used.
func (c *Cuisine) NumUniqueIngredients() int { return len(c.UniqueIngredients) }

// SizeHistogram returns the recipe-size distribution (Fig 3a input).
func (c *Cuisine) SizeHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for _, sz := range c.Sizes {
		h.Add(sz)
	}
	return h
}

// FrequencyVector returns ingredient use counts aligned with
// UniqueIngredients order.
func (c *Cuisine) FrequencyVector() []int {
	out := make([]int, len(c.UniqueIngredients))
	for i, id := range c.UniqueIngredients {
		out[i] = c.IngredientFreq[id]
	}
	return out
}

// TopIngredients returns the k most frequently used ingredients in
// descending frequency order (ties break by ID for determinism).
func (c *Cuisine) TopIngredients(k int) []flavor.ID {
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

// RegionStats is one region's descriptive statistics at one corpus
// version: Table 1's counts, the mean recipe size, the most-used
// ingredients and the Fig 2 category usage. Every field is computed
// from exact integer counters, so each equals what the region's Cuisine
// and CategoryUsage walk would give, bit for bit.
type RegionStats struct {
	// Recipes counts live recipes; Ingredients the distinct ingredients
	// they use.
	Recipes, Ingredients int
	// MeanSize is the mean recipe size, 0 for an empty region.
	MeanSize float64
	// Top holds the k most-used ingredients (fewer when the region uses
	// fewer), descending by use count, ties by ascending ID — the order
	// of Cuisine.TopIngredients.
	Top []flavor.ID
	// CategoryUsage is the region's row of CategoryUsage.
	CategoryUsage []float64
}

// RegionStats returns the region's descriptive statistics with its k
// most-used ingredients, all from one read of the counters: no recipe
// is visited.
func (s *Store) RegionStats(r Region, k int) RegionStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := &s.counts[r]
	st := RegionStats{
		Recipes:       len(s.byRegion[r]),
		Ingredients:   c.distinct,
		Top:           c.top(k),
		CategoryUsage: s.categoryUsageLocked(r),
	}
	if r == World {
		st.Recipes = s.live
	}
	if st.Recipes > 0 {
		st.MeanSize = float64(c.size) / float64(st.Recipes)
	}
	return st
}

// top returns the k most-used ingredients, descending by count, ties
// by ascending ID: an insertion into a k-long list, scanning IDs in
// ascending order so an equal count never overtakes.
func (c *regionCounts) top(k int) []flavor.ID {
	k = min(k, c.distinct)
	out := make([]flavor.ID, 0, k)
	if k == 0 {
		return out
	}
	for id, n := range c.uses {
		if n == 0 || len(out) == k && n <= c.uses[out[k-1]] {
			continue
		}
		if len(out) < k {
			out = append(out, 0)
		}
		i := len(out) - 1
		for ; i > 0 && c.uses[out[i-1]] < n; i-- {
			out[i] = out[i-1]
		}
		out[i] = flavor.ID(id)
	}
	return out
}

// CategoryUsage computes, for each of the 21 categories, the fraction of
// ingredient slots (recipe-ingredient incidences) in the cuisine that
// fall in the category — the rows of the Fig 2 heatmap.
func (s *Store) CategoryUsage(r Region) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.categoryUsageLocked(r)
}

// categoryUsageLocked sums the region's per-ingredient counters by
// category; every count and the total are integers, so each fraction is
// one correctly rounded division.
func (s *Store) categoryUsageLocked(r Region) []float64 {
	c := &s.counts[r]
	out := make([]float64, flavor.NumCategories)
	if c.size == 0 {
		return out
	}
	var counts [flavor.NumCategories]int
	for id, n := range c.uses {
		if n != 0 {
			counts[s.catalog.Ingredient(flavor.ID(id)).Category] += int(n)
		}
	}
	for i, n := range counts {
		out[i] = float64(n) / float64(c.size)
	}
	return out
}

// SourceCounts tallies live recipes per source across the whole store.
func (s *Store) SourceCounts() map[Source]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[Source]int, NumSources)
	for i := range s.recipes {
		if !s.recipes[i].Deleted {
			out[s.recipes[i].Source]++
		}
	}
	return out
}
