package recipedb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"culinary/internal/flavor"
)

// Writer fan-in. A writer packages its mutations as writeOps and hands
// them to the write queue (internal/fanin, which owns the
// leader/follower protocol). applyGroup below is the queue's run
// function: for every op queued at that moment it validates, assigns
// slots and encodes records against a read snapshot (no exclusive lock),
// persists the whole group through one backend batch (one storage group
// commit), then takes the write lock once to apply all slot and
// posting-list updates, publish one version bump, and deliver one
// subscriber notification batch. The exclusive lock and the backend
// fsync amortize across concurrent callers.
//
// Coherence argument: only the token holder mutates corpus state, so
// the read snapshot the leader plans against is exactly the state its
// exclusive-lock apply phase will observe — no other writer can
// interleave between plan and apply. Ops within a group are planned
// against an overlay that layers earlier in-group ops over that
// snapshot, which makes a batch byte-equivalent to applying the same
// ops sequentially: same slot assignment, same version sequence, same
// posting lists, same persisted keys.

// BatchBackend persists the mutations of one write group through one
// group-commit round. The returned slice aligns with the inputs; a
// mid-batch storage fault yields per-record errors (the durable prefix
// nil, the rest failed). *storage.Store satisfies it via WriteBatch; the
// interface lives here so recipedb does not import the storage engine
// (which imports recipedb for the snapshot codec).
type BatchBackend interface {
	WriteBatch(keys []string, values [][]byte, tombstones []bool) []error
}

// Outcome classifies what a batch item did to the corpus.
type Outcome uint8

const (
	// OutcomeRejected: the item failed validation (or a persistence
	// fault); the corpus is untouched by it.
	OutcomeRejected Outcome = iota
	// OutcomeCreated: a new live recipe occupies the slot.
	OutcomeCreated
	// OutcomeReplaced: the slot's previous live recipe was displaced.
	OutcomeReplaced
	// OutcomeKept: the item was byte-identical to the slot's live
	// recipe; nothing was written (batch ingest only).
	OutcomeKept
	// OutcomeRemoved: the slot was tombstoned.
	OutcomeRemoved
)

// String returns the wire spelling used by the batch endpoint.
func (o Outcome) String() string {
	switch o {
	case OutcomeCreated:
		return "created"
	case OutcomeReplaced:
		return "replaced"
	case OutcomeKept:
		return "kept"
	case OutcomeRemoved:
		return "removed"
	default:
		return "rejected"
	}
}

// BatchItem is one operation of an ApplyBatch call.
type BatchItem struct {
	// Remove tombstones slot ID instead of upserting.
	Remove bool
	// ID addresses a slot; for upserts, -1 assigns the next free one.
	ID int

	Name        string
	Region      Region
	Source      Source
	Ingredients []flavor.ID
}

// BatchResult reports one item's outcome. Err is nil exactly when the
// item was applied (or kept); validation failures wrap ErrValidation
// or ErrNoRecipe, persistence failures wrap the backend error.
type BatchResult struct {
	// ID is the slot the item resolved to (upserts with ID -1 learn
	// their assignment here).
	ID int
	// Version is the corpus version the item produced; a kept item
	// reports the version it was verified against.
	Version uint64
	Outcome Outcome
	Err     error
}

// ApplyBatch applies the items as one coalesced group: one write
// critical section, one version publication, one subscriber batch, one
// backend group commit. Items apply in order with all-or-nothing
// semantics per item — an invalid item is rejected in place while its
// neighbors proceed, exactly as if the items had been applied
// sequentially. Upsert items that are byte-identical to the slot's
// current live recipe are skipped as OutcomeKept. The returned slice
// aligns with items.
func (s *Store) ApplyBatch(items []BatchItem) []BatchResult {
	if len(items) == 0 {
		return nil
	}
	ops := make([]*writeOp, len(items))
	for i, it := range items {
		ops[i] = &writeOp{
			remove: it.Remove,
			id:     it.ID,
			name:   it.Name,
			region: it.Region,
			source: it.Source,
			// Copy: the caller may reuse its slice after we return.
			ingredients: append([]flavor.ID(nil), it.Ingredients...),
			dedupe:      true,
		}
	}
	s.writes.Do(ops, s.applyGroup)
	out := make([]BatchResult, len(items))
	for i, op := range ops {
		out[i] = BatchResult{ID: op.outID, Version: op.version, Outcome: op.outcome, Err: op.err}
	}
	return out
}

// writeOp is one mutation inside a write group.
type writeOp struct {
	remove      bool
	id          int
	name        string
	region      Region
	source      Source
	ingredients []flavor.ID // writer's private copy
	// dedupe skips byte-identical upserts (OutcomeKept). Batch-ingest
	// items opt in; single Upsert keeps its always-write semantics.
	dedupe bool

	// Leader planning state.
	rec        Recipe // the recipe to install (upserts)
	persistIdx int    // index into the group's backend arrays; -1 none
	// keptAfter, for a kept op, is the in-group predecessor whose write
	// produced the state the op was deduplicated against; if that write
	// fails to persist the dedup premise is gone and the op fails too.
	keptAfter *writeOp

	// Outcome.
	outID   int
	version uint64
	outcome Outcome
	err     error
}

// applyGroup runs one group through plan → persist → commit. Caller
// holds the write token, so this is the only goroutine mutating corpus
// state — the invariant the three-phase split relies on.
func (s *Store) applyGroup(ops []*writeOp) {
	keys, values, tombs := s.planGroup(ops)
	s.persistGroup(ops, keys, values, tombs)
	s.commitGroup(ops)
	s.bstats.note(len(ops))
}

// planGroup validates every op, assigns slots, detects kept items and
// encodes the backend records, all against a read snapshot layered with
// the effects of earlier in-group ops. Returns the backend write set:
// the version record first, so a fault that splits the batch never
// leaves a recipe record durable without it, then one record per op
// that changes the corpus — or nothing when no op does.
func (s *Store) planGroup(ops []*writeOp) (keys []string, values [][]byte, tombs []bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	slots := len(s.recipes)
	if s.persist != nil {
		keys = append(make([]string, 0, len(ops)+1), VersionKey)
		values = append(make([][]byte, 0, len(ops)+1), nil)
		tombs = append(make([]bool, 0, len(ops)+1), false)
	}
	// overlay maps slots touched by earlier in-group ops to their
	// post-op content (nil = tombstoned); lastWriter tracks which op
	// produced that content, for kept-dependency accounting.
	overlay := make(map[int]*Recipe)
	lastWriter := make(map[int]*writeOp)
	curLive := func(id int) *Recipe {
		if r, touched := overlay[id]; touched {
			return r
		}
		if id >= 0 && id < len(s.recipes) && !s.recipes[id].Deleted {
			return &s.recipes[id]
		}
		return nil
	}
	for _, op := range ops {
		op.persistIdx = -1
		if op.remove {
			if op.id < 0 || op.id >= slots || curLive(op.id) == nil {
				op.err = fmt.Errorf("%w: id %d", ErrNoRecipe, op.id)
				continue
			}
			op.outID = op.id
			op.outcome = OutcomeRemoved
			overlay[op.id] = nil
			lastWriter[op.id] = op
			if s.persist != nil {
				keys = append(keys, RecipeKey(op.id))
				values = append(values, nil)
				tombs = append(tombs, true)
				op.persistIdx = len(keys) - 1
			}
			continue
		}
		if err := s.Validate(op.name, op.region, op.source, op.ingredients); err != nil {
			op.err = err
			continue
		}
		id := op.id
		if id < 0 {
			id = slots // next free slot, counting in-group extensions
		}
		if id >= slots {
			slots = id + 1
		}
		op.outID = id
		rec := Recipe{
			ID: id, Name: op.name, Region: op.region, Source: op.source,
			Ingredients: op.ingredients,
		}
		cur := curLive(id)
		if op.dedupe && cur != nil && recipeEqual(cur, &rec) {
			op.outcome = OutcomeKept
			op.keptAfter = lastWriter[id]
			continue
		}
		op.rec = rec
		if cur == nil {
			op.outcome = OutcomeCreated
		} else {
			op.outcome = OutcomeReplaced
		}
		overlay[id] = &op.rec
		lastWriter[id] = op
		if s.persist != nil {
			keys = append(keys, RecipeKey(id))
			values = append(values, EncodeRecipe(&rec))
			tombs = append(tombs, false)
			op.persistIdx = len(keys) - 1
		}
	}
	if len(keys) <= 1 {
		return nil, nil, nil
	}
	// Every persisted op that commits bumps the version once.
	values[0] = EncodeVersion(s.version.Load()+uint64(len(keys)-1), slots)
	return keys, values, tombs
}

// persistGroup writes the group's records through the backend before
// any in-memory state changes (write-through: a failed write leaves the
// corpus untouched for exactly the ops it failed).
func (s *Store) persistGroup(ops []*writeOp, keys []string, values [][]byte, tombs []bool) {
	if s.persist == nil || len(keys) == 0 {
		return
	}
	errs := s.persist.WriteBatch(keys, values, tombs)
	for _, op := range ops {
		if op.persistIdx >= 0 && errs[op.persistIdx] != nil {
			op.err = wrapPersistError(op, errs[op.persistIdx])
		}
	}
	// A kept op deduplicated against an in-group write that failed: its
	// premise ("the slot already holds these bytes") is gone, so it
	// fails with the same cause rather than acking silently.
	for _, op := range ops {
		if op.err == nil && op.outcome == OutcomeKept && op.keptAfter != nil && op.keptAfter.err != nil {
			op.err = op.keptAfter.err
			op.outcome = OutcomeRejected
		}
	}
}

// wrapPersistError keeps the per-op error spelling of the old
// write-through path, so callers' errors.Is chains (ErrWriteWedged,
// ENOSPC, ...) keep resolving through the wrap.
func wrapPersistError(op *writeOp, err error) error {
	if op.remove {
		return fmt.Errorf("recipedb: deleting recipe %d: %w", op.outID, err)
	}
	return fmt.Errorf("recipedb: persisting recipe %d: %w", op.outID, err)
}

// commitGroup takes the write lock once and applies every surviving op
// in order: slot and posting-list updates, per-mutation versions, one
// atomic version publication, one subscriber notification batch. The
// live corpus is authoritative here — an op whose in-group predecessor
// failed to persist re-fails its precondition check instead of applying
// against state that never materialized.
func (s *Store) commitGroup(ops []*writeOp) {
	s.mu.Lock()
	base := s.version.Load()
	v := base
	var muts []Mutation
	for _, op := range ops {
		if op.err != nil {
			op.outcome = OutcomeRejected
			continue
		}
		if op.outcome == OutcomeKept {
			op.version = v
			continue
		}
		if op.remove {
			if op.outID >= len(s.recipes) || s.recipes[op.outID].Deleted {
				op.err = fmt.Errorf("%w: id %d", ErrNoRecipe, op.outID)
				op.outcome = OutcomeRejected
				continue
			}
			oldCopy := s.recipes[op.outID]
			s.unindexLocked(&s.recipes[op.outID])
			s.recipes[op.outID] = Recipe{ID: op.outID, Deleted: true}
			v++
			op.version = v
			muts = append(muts, Mutation{Version: v, ID: op.outID, Old: &oldCopy})
			continue
		}
		displaced := s.installLocked(op.rec)
		op.outcome = OutcomeCreated
		if displaced != nil {
			op.outcome = OutcomeReplaced
		}
		v++
		op.version = v
		newCopy := s.recipes[op.outID]
		muts = append(muts, Mutation{Version: v, ID: op.outID, Old: displaced, New: &newCopy})
	}
	// Subscribers run before the atomic version is published: the
	// lock-free version is a fence ("state at version v is observable"),
	// so anything keyed on it — a replica's version gate admitting a
	// read the live search index must already cover — may only see v
	// once every subscriber has processed the batch. Readers under
	// Read() are excluded by the lock either way; only lock-free
	// Version() observers need this ordering.
	s.notifyLocked(muts)
	if v != base {
		s.version.Store(v)
	}
	s.mu.Unlock()
}

// installLocked puts rec into slot rec.ID and on its posting lists:
// slots between the current bound and rec.ID become tombstones, a live
// occupant is returned (nil when the slot was free or tombstoned) and
// its lists are patched into rec's, touching only the lists that
// differ. Callers hold s.mu exclusively.
func (s *Store) installLocked(rec Recipe) (displaced *Recipe) {
	id := rec.ID
	for len(s.recipes) < id { // gap slots stay tombstoned
		s.recipes = append(s.recipes, Recipe{ID: len(s.recipes), Deleted: true})
	}
	if id == len(s.recipes) {
		s.recipes = append(s.recipes, rec)
	} else if !s.recipes[id].Deleted {
		old := s.recipes[id]
		s.recipes[id] = rec
		s.reindexLocked(&old, &s.recipes[id])
		return &old
	} else {
		s.recipes[id] = rec
	}
	s.indexLocked(&s.recipes[id])
	return nil
}

// Load installs recs, each addressed by its ID, and leaves the store in
// the state calling Upsert(r.ID, r.Name, r.Region, r.Source,
// r.Ingredients) on each in order would: the same slots, gaps and
// tombstones, the same posting lists, one version per recipe, the same
// mutations delivered to subscribers — CanonicalDump, Version, Slots and
// Len are equal. What differs is the cost: the whole slice is validated
// and installed in one write critical section with one version
// publication, no per-recipe write group, and the store keeps each
// Ingredients slice instead of copying it (the caller must not write
// them afterwards). It is the snapshot reload path (storage.LoadCorpus).
//
// Like the Upsert loop it stops at the first invalid recipe: n is the
// number installed and err, when non-nil, describes recs[n]. Load does
// not write through, so a store with a backend attached refuses it.
func (s *Store) Load(recs []Recipe) (n int, err error) {
	s.writes.Lock() // the write token: no write group runs beside this
	defer s.writes.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.persist != nil {
		return 0, errors.New("recipedb: Load on a store with a backend attached")
	}
	base := s.version.Load()
	v := base
	var muts []Mutation
	for i := range recs {
		r := &recs[i]
		if err = s.Validate(r.Name, r.Region, r.Source, r.Ingredients); err != nil {
			break
		}
		rec := Recipe{ID: r.ID, Name: r.Name, Region: r.Region, Source: r.Source, Ingredients: r.Ingredients}
		if rec.ID < 0 {
			rec.ID = len(s.recipes)
		}
		displaced := s.installLocked(rec)
		v++
		if len(s.subs) > 0 {
			newCopy := rec // rec itself stays off the heap when nobody listens
			muts = append(muts, Mutation{Version: v, ID: rec.ID, Old: displaced, New: &newCopy})
		}
		n++
	}
	// Subscribers before the version, as in commitGroup.
	s.notifyLocked(muts)
	if v != base {
		s.version.Store(v)
	}
	return n, err
}

// recipeEqual reports content equality (everything but the slot ID,
// which both sides already share when this is called).
func recipeEqual(a, b *Recipe) bool {
	if a.Name != b.Name || a.Region != b.Region || a.Source != b.Source ||
		a.Deleted != b.Deleted || len(a.Ingredients) != len(b.Ingredients) {
		return false
	}
	for i := range a.Ingredients {
		if a.Ingredients[i] != b.Ingredients[i] {
			return false
		}
	}
	return true
}

// batchStats tracks write-group coalescing for /api/health: group
// count, op count, the max group size, and a ring of recent sizes for
// the p50.
type batchStats struct {
	mu      sync.Mutex
	batches uint64
	ops     uint64
	// coalesced counts groups that carried more than one op — the
	// number the fan-in exists to make nonzero under concurrency.
	coalesced uint64
	max       int
	recent    [256]int
	recentN   int // total notes, for ring occupancy
}

func (b *batchStats) note(n int) {
	b.mu.Lock()
	b.batches++
	b.ops += uint64(n)
	if n > 1 {
		b.coalesced++
	}
	if n > b.max {
		b.max = n
	}
	b.recent[b.recentN%len(b.recent)] = n
	b.recentN++
	b.mu.Unlock()
}

// BatchStats is a snapshot of write-group coalescing.
type BatchStats struct {
	// Batches is the number of write groups applied (each cost one
	// critical section, one version publication, one group commit).
	Batches uint64
	// Ops is the number of mutations those groups carried.
	Ops uint64
	// Coalesced is the number of groups carrying more than one op.
	Coalesced uint64
	// MaxBatch is the largest group seen; P50Batch the median size of
	// the most recent groups (up to 256).
	MaxBatch int
	P50Batch int
}

// BatchStats returns the fan-in coalescing counters.
func (s *Store) BatchStats() BatchStats {
	b := &s.bstats
	b.mu.Lock()
	defer b.mu.Unlock()
	out := BatchStats{
		Batches:   b.batches,
		Ops:       b.ops,
		Coalesced: b.coalesced,
		MaxBatch:  b.max,
	}
	n := b.recentN
	if n > len(b.recent) {
		n = len(b.recent)
	}
	if n > 0 {
		sizes := append([]int(nil), b.recent[:n]...)
		sort.Ints(sizes)
		out.P50Batch = sizes[n/2]
	}
	return out
}

// CanonicalDump serializes the complete corpus state — version, slot
// layout, per-slot content, and both posting-list families — in a
// deterministic text form, so equivalence tests can assert that a
// batched application is byte-identical to a sequential one.
func (s *Store) CanonicalDump() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "version=%d live=%d slots=%d\n", s.version.Load(), len(s.byRegion[World]), len(s.recipes))
	for i := range s.recipes {
		r := &s.recipes[i]
		if r.Deleted {
			fmt.Fprintf(&b, "slot %d: tombstone\n", i)
			continue
		}
		fmt.Fprintf(&b, "slot %d: %q region=%d source=%d ingredients=%v\n",
			i, r.Name, r.Region, r.Source, r.Ingredients)
	}
	for r := range World {
		if len(s.byRegion[r]) > 0 {
			fmt.Fprintf(&b, "region %d: %v\n", r, s.byRegion[r])
		}
	}
	ings := make([]flavor.ID, 0, len(s.byIngredient))
	for id := range s.byIngredient {
		ings = append(ings, id)
	}
	sort.Slice(ings, func(i, j int) bool { return ings[i] < ings[j] })
	for _, id := range ings {
		if len(s.byIngredient[id]) > 0 {
			fmt.Fprintf(&b, "ingredient %d: %v\n", id, s.byIngredient[id])
		}
	}
	return b.String()
}
