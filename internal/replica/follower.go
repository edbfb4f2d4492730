package replica

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
)

// FollowerConfig configures a replica follower.
type FollowerConfig struct {
	// Primary is the primary's replication base URL (the dedicated
	// listener from -replication-listen), e.g. "http://10.0.0.1:7071".
	Primary string
	// Dir is the local mirror directory. The follower owns it
	// completely: on an unrecoverable inconsistency it wipes the
	// directory and bootstraps afresh.
	Dir string
	// Catalog must be built from the same flavor config (same seed) as
	// the primary's; LoadCorpus enforces this against the snapshot's
	// recorded config.
	Catalog *flavor.Catalog
	// Interval is the poll period for Start's background loop.
	// Defaults to 250ms.
	Interval time.Duration
	// ChunkBytes is the per-request segment fetch size. Defaults to
	// DefaultChunkBytes, capped at MaxChunkBytes.
	ChunkBytes int64
	// HTTPClient overrides the feed client (nil: http.DefaultClient).
	HTTPClient *http.Client
	// Logger receives poll errors and lifecycle notes; nil discards.
	Logger *log.Logger
}

// Follower tails a primary's replication feed into a local mirror
// directory and an in-memory corpus serving the full read API. See the
// package comment for the protocol; the crash-consistency rules live
// on mirror.
type Follower struct {
	cfg    FollowerConfig
	client *client
	corpus *recipedb.Store

	// mu serializes polls (and Close) — all mirror/tail state below is
	// touched only under it.
	mu     sync.Mutex
	mirror *mirror
	// tails holds, per chain segment, fetched bytes not yet forming a
	// whole record. Only whole decoded records are written to the
	// mirror, so mirror files always end on record boundaries.
	tails map[uint64][]byte
	// forceReconcile requests a reconcile on the next poll after an
	// apply anomaly (a record the corpus rejected) or a reconcile that
	// failed partway; it clears only when a reconcile succeeds.
	forceReconcile bool
	// maxSeen is the highest segment id any processed snapshot (or the
	// restored mirror) has listed. Segment ids come from one primary
	// sequence, so a snapshot whose id range skips past maxSeen with a
	// hole names segments created and retired entirely between polls —
	// records the incremental path can never decode.
	maxSeen uint64
	// chainSeen tracks chain segments listed by snapshots this
	// incarnation, including ones no byte has been fetched from yet;
	// one of them vanishing before it is fully decoded forces a
	// reconcile even though the mirror holds no trace of it.
	chainSeen map[uint64]bool

	primaryVersion atomic.Uint64
	polls          atomic.Uint64
	pollErrors     atomic.Uint64
	reconciles     atomic.Uint64
	bytesFetched   atomic.Uint64

	errMu   sync.Mutex
	lastErr string

	stopOnce sync.Once
	started  atomic.Bool
	stop     chan struct{}
	done     chan struct{}
}

// errQuarantineGap is the backoff signal: the primary quarantined a
// segment whose bytes the follower has not fully mirrored, so the gap
// cannot be fetched until the primary's salvage re-homes the records
// into a ranked output listed by a later snapshot.
var errQuarantineGap = errors.New("replica: quarantined segment not fully mirrored; waiting for salvage")

// OpenFollower opens (or bootstraps) a follower. An existing mirror
// directory resumes from its committed REPLICA_STATE: the mirror is
// repaired, opened read-only, replayed into a corpus stamped with the
// recorded version, and polling resumes from the recorded fetch
// positions. Any failure on that path — or an empty directory — falls
// back to wiping the mirror and bootstrapping a full copy from the
// primary's current snapshot.
func OpenFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.ChunkBytes > MaxChunkBytes {
		cfg.ChunkBytes = MaxChunkBytes
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	f := &Follower{
		cfg:       cfg,
		client:    newClient(cfg.Primary, cfg.HTTPClient),
		tails:     make(map[uint64][]byte),
		chainSeen: make(map[uint64]bool),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if err := f.openExisting(); err != nil {
		f.logf("follower: local mirror unusable (%v); bootstrapping from primary", err)
		if err := f.bootstrap(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// openExisting resumes from a committed mirror. Tails start empty and
// fetch cursors equal the mirrored sizes: LoadCorpus replayed every
// mirrored byte, so the corpus already covers them.
func (f *Follower) openExisting() error {
	m, err := openMirror(f.cfg.Dir)
	if err != nil {
		return err
	}
	if len(m.written) == 0 {
		m.close()
		return errors.New("replica: empty mirror")
	}
	db, err := storage.Open(f.cfg.Dir, storage.Options{ReadOnly: true})
	if err != nil {
		m.close()
		return err
	}
	corpus, err := storage.LoadCorpus(db, f.cfg.Catalog)
	db.Close()
	if err != nil {
		m.close()
		return err
	}
	corpus.SyncVersion(m.version)
	corpus.SyncSlots(m.slots)
	f.mirror = m
	f.corpus = corpus
	// Track only what the mirror proves: ids it holds bytes or staging
	// for. A segment listed-but-unfetched before the restart left no
	// trace; if the primary retired it while we were down, it now sits
	// in the id gap above maxSeen and the first poll reconciles.
	f.maxSeen = 0
	f.chainSeen = make(map[uint64]bool)
	for id := range m.written {
		if id > f.maxSeen {
			f.maxSeen = id
		}
	}
	for id := range m.staged {
		if id > f.maxSeen {
			f.maxSeen = id
		}
	}
	if man, err := parseManifest(m.manifest); err == nil {
		for id := range m.written {
			if man.rankOf(id) == id {
				f.chainSeen[id] = true
			}
		}
	}
	f.logf("follower: resumed mirror %s at version %d (%d segments)", f.cfg.Dir, m.version, len(m.written))
	return nil
}

// bootstrap wipes the mirror directory and copies the primary's
// current snapshot in full, then replays it into a fresh corpus.
func (f *Follower) bootstrap() error {
	if f.mirror != nil {
		f.mirror.close()
		f.mirror = nil
	}
	if err := os.RemoveAll(f.cfg.Dir); err != nil {
		return fmt.Errorf("replica: wiping mirror dir: %w", err)
	}
	m, err := openMirror(f.cfg.Dir)
	if err != nil {
		return err
	}
	f.mirror = m
	f.tails = make(map[uint64][]byte)
	f.maxSeen = 0
	f.chainSeen = make(map[uint64]bool)
	st, err := f.client.state()
	if err != nil {
		return err
	}
	f.primaryVersion.Store(st.Version)
	f.noteSnapshot(st)
	if err := f.mirrorSync(st); err != nil {
		return err
	}
	m.slots = st.Slots
	if err := m.commitState(st.Version); err != nil {
		return err
	}
	db, err := storage.Open(f.cfg.Dir, storage.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	corpus, err := storage.LoadCorpus(db, f.cfg.Catalog)
	db.Close()
	if err != nil {
		return err
	}
	corpus.SyncVersion(st.Version)
	corpus.SyncSlots(st.Slots)
	f.corpus = corpus
	f.logf("follower: bootstrapped %s at version %d (%d recipes)", f.cfg.Dir, st.Version, corpus.Len())
	return nil
}

// Corpus returns the follower's live read corpus. Its Version() is the
// read-your-writes token the server's gating compares against.
func (f *Follower) Corpus() *recipedb.Store { return f.corpus }

// Start runs the poll loop until Close.
func (f *Follower) Start() {
	f.started.Store(true)
	go func() {
		defer close(f.done)
		t := time.NewTicker(f.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				if err := f.Poll(); err != nil {
					f.pollErrors.Add(1)
					f.setErr(err)
					if !errors.Is(err, errQuarantineGap) {
						f.logf("follower: poll: %v", err)
					}
				}
			}
		}
	}()
}

// Close stops the poll loop (when Start ran) and releases the mirror.
func (f *Follower) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	if f.started.Load() {
		<-f.done
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mirror != nil {
		return f.mirror.close()
	}
	return nil
}

// Poll performs one replication round: fetch the primary's state,
// mirror new bytes, apply new chain records, true the version up, and
// commit progress. Exported so tests and the serve loop can drive
// deterministic catch-up; safe to call concurrently with the Start
// loop (rounds serialize).
func (f *Follower) Poll() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.polls.Add(1)

	st, err := f.client.state()
	if err != nil {
		return err
	}
	f.primaryVersion.Store(st.Version)

	if f.forceReconcile {
		return f.runReconcile(st)
	}

	listed := make(map[uint64]storage.SegmentInfo, len(st.Segments))
	for _, seg := range st.Segments {
		listed[seg.ID] = seg
	}

	// A quarantined segment cannot be fetched; if we do not already
	// hold its full prefix, the missing records are unreachable until
	// the primary's salvage lands in a later snapshot. Back off.
	for _, seg := range st.Segments {
		if seg.Quarantined && f.mirror.written[seg.ID] != seg.Size {
			return fmt.Errorf("%w (segment %d: have %d of %d bytes)",
				errQuarantineGap, seg.ID, f.mirror.written[seg.ID], seg.Size)
		}
	}

	localMan, err := parseManifest(f.mirror.manifest)
	if err != nil {
		return f.resync()
	}

	// Invisible segments: ids are allocated from one primary sequence,
	// so an id between maxSeen and the snapshot's maximum that the
	// snapshot does not list names a segment created and retired
	// (compacted or salvaged) entirely between polls. Its records
	// survive only inside ranked outputs the incremental path never
	// decodes, so adopting this snapshot incrementally would publish a
	// version the corpus does not actually cover.
	newMax := f.maxSeen
	for _, seg := range st.Segments {
		if seg.ID > newMax {
			newMax = seg.ID
		}
	}
	for id := f.maxSeen + 1; id <= newMax; id++ {
		if _, ok := listed[id]; !ok {
			return f.runReconcile(st)
		}
	}

	// A tracked segment that vanished from the snapshot before we fully
	// decoded it had its remaining records re-homed the same way. Fully
	// decoded chain segments (done) and promoted ranked outputs (whose
	// content was already applied when their victims were, by
	// induction) need mere cleanup. The sweep covers segments we hold
	// bytes for, tails holding less than one record, and chain segments
	// listed earlier that we never fetched from at all.
	vanished := func(id uint64) bool {
		if _, ok := listed[id]; ok {
			return false
		}
		if f.mirror.isDone(id) {
			return false
		}
		return localMan.rankOf(id) == id || f.mirror.written[id] == 0
	}
	for id := range f.mirror.written {
		if vanished(id) {
			return f.runReconcile(st)
		}
	}
	for id := range f.tails {
		if vanished(id) {
			return f.runReconcile(st)
		}
	}
	for id := range f.chainSeen {
		if vanished(id) {
			return f.runReconcile(st)
		}
	}
	f.noteSnapshot(st)

	if err := f.mirrorRanked(st); err != nil {
		return err
	}
	if err := f.mirror.mirrorManifest(st.Manifest); err != nil {
		return err
	}
	if err := f.mirror.promoteStaged(); err != nil {
		return err
	}

	applied, complete, err := f.tailChain(st)
	if err != nil {
		return err
	}
	if complete && st.Version > f.corpus.Version() {
		// Every listed position is mirrored and applied; the state's
		// directional guarantee says that covers version st.Version.
		f.corpus.SyncVersion(st.Version)
		applied = true
	}
	if complete {
		// Adopt the slot bound too: a trailing tombstone whose creating
		// record was compacted away leaves no replayable trace.
		f.corpus.SyncSlots(st.Slots)
	}
	if applied || f.corpus.Version() != f.mirror.version || f.corpus.Slots() != f.mirror.slots {
		f.mirror.slots = f.corpus.Slots()
		if err := f.mirror.commitState(f.corpus.Version()); err != nil {
			return err
		}
	}
	return f.cleanup(listed)
}

// noteSnapshot records the snapshot's id coverage for the next poll's
// invisible-segment and vanished-segment sweeps. Called only once a
// snapshot has passed those sweeps (or is being reconciled, where the
// full mirror replay covers every listed record regardless).
func (f *Follower) noteSnapshot(st *State) {
	for _, seg := range st.Segments {
		if seg.ID > f.maxSeen {
			f.maxSeen = seg.ID
		}
	}
	for _, seg := range st.chainSegments() {
		f.chainSeen[seg.ID] = true
	}
}

// runReconcile wraps reconcile with retry bookkeeping: the
// forceReconcile latch stays set until a reconcile completes, so a
// round that fails partway (network, disk) is retried from the top of
// the next poll instead of silently falling back to the incremental
// path with half-reconciled state.
func (f *Follower) runReconcile(st *State) error {
	f.forceReconcile = true
	if err := f.reconcile(st); err != nil {
		return err
	}
	f.forceReconcile = false
	f.noteSnapshot(st)
	return nil
}

// mirrorRanked stages any listed ranked segment (compaction/salvage
// output) not yet held, fsyncs the staging files and durably records
// their sizes. Ranked bytes must not appear under final names before
// the manifest that ranks them is mirrored — see mirror.
func (f *Follower) mirrorRanked(st *State) error {
	for _, seg := range st.Segments {
		if seg.Rank == seg.ID || seg.Quarantined {
			continue
		}
		have, ok := f.mirror.written[seg.ID]
		if ok {
			if have != seg.Size {
				// A promoted ranked file is complete by construction; a
				// size mismatch means local state we cannot trust.
				return f.resync()
			}
			continue
		}
		for off := f.mirror.stagedSize(seg.ID); off < seg.Size; {
			chunk, err := f.fetchChunk(seg.ID, off, seg.Size-off)
			if err != nil {
				return err
			}
			if len(chunk) == 0 {
				return fmt.Errorf("replica: ranked segment %d short at %d of %d", seg.ID, off, seg.Size)
			}
			if err := f.mirror.stageWriteAt(seg.ID, off, chunk); err != nil {
				return err
			}
			off += int64(len(chunk))
		}
	}
	// Seal whenever anything is staged — including leftovers from an
	// errored earlier round that were fully fetched but never sealed.
	// Promoting an unsealed staging file would let a crash delete it
	// after the manifest that ranks it is already mirrored.
	return f.mirror.sealStaged()
}

// tailChain fetches and applies each chain segment's new records.
// Fetched bytes buffer in the segment's tail; only whole decoded
// records are written to the mirror and applied to the corpus, so the
// mirror stays record-aligned. Returns whether anything was applied
// and whether every listed chain position was reached.
func (f *Follower) tailChain(st *State) (applied, complete bool, err error) {
	complete = true
	for _, seg := range st.chainSegments() {
		if seg.Quarantined {
			continue // full prefix already held (checked in Poll)
		}
		id := seg.ID
		cursor := f.mirror.written[id] + int64(len(f.tails[id]))
		for cursor < seg.Size {
			chunk, err := f.fetchChunk(id, cursor, seg.Size-cursor)
			if err != nil {
				return applied, false, err
			}
			if len(chunk) == 0 {
				complete = false // watermark answer raced; next poll resumes
				break
			}
			cursor += int64(len(chunk))
			tail := append(f.tails[id], chunk...)
			recs, consumed, derr := storage.DecodeRecords(tail)
			if derr != nil {
				// Bytes that fail CRC on a healthy primary should not
				// exist; drop the in-memory tail and refetch next poll.
				// Persistent corruption stalls here until the primary's
				// scrubber quarantines the segment (handled above).
				delete(f.tails, id)
				return applied, false, fmt.Errorf("replica: segment %d at %d: %w", id, f.mirror.written[id], derr)
			}
			if consumed > 0 {
				if err := f.mirror.writeAt(id, f.mirror.written[id], tail[:consumed]); err != nil {
					return applied, false, err
				}
				if err := f.applyRecords(recs); err != nil {
					return applied, false, err
				}
				applied = true
			}
			f.tails[id] = append([]byte(nil), tail[consumed:]...)
			if len(f.tails[id]) == 0 {
				delete(f.tails, id)
			}
		}
		if f.mirror.written[id] != seg.Size || len(f.tails[id]) != 0 {
			complete = false
		} else if seg.Sealed {
			f.mirror.markDone(id)
		}
	}
	return applied, complete, nil
}

// applyRecords folds decoded chain records into the live corpus.
// Tombstones for slots the corpus never saw are skipped (the create
// they cancel was itself collapsed away); any other rejection means
// divergence and schedules a reconcile.
func (f *Follower) applyRecords(recs []storage.ReplicaRecord) error {
	items := make([]recipedb.BatchItem, 0, len(recs))
	for _, rec := range recs {
		id, ok := recipedb.ParseRecipeKey(rec.Key)
		if !ok {
			continue // snapshot metadata under meta/, mirrored not applied
		}
		if rec.Tombstone {
			items = append(items, recipedb.BatchItem{Remove: true, ID: id})
			continue
		}
		name, region, source, ings, err := recipedb.DecodeRecipe(rec.Value)
		if err != nil {
			f.forceReconcile = true
			return fmt.Errorf("replica: undecodable recipe record %q: %w", rec.Key, err)
		}
		items = append(items, recipedb.BatchItem{ID: id, Name: name, Region: region, Source: source, Ingredients: ings})
	}
	if len(items) == 0 {
		return nil
	}
	for i, res := range f.corpus.ApplyBatch(items) {
		if res.Err != nil && !(items[i].Remove && errors.Is(res.Err, recipedb.ErrNoRecipe)) {
			f.forceReconcile = true
			return fmt.Errorf("replica: corpus rejected replicated record (slot %d): %w", items[i].ID, res.Err)
		}
	}
	return nil
}

// fetchChunk reads up to f.cfg.ChunkBytes (capped at want) of segment
// id at off and counts the bytes.
func (f *Follower) fetchChunk(id uint64, off, want int64) ([]byte, error) {
	limit := f.cfg.ChunkBytes
	if want < limit {
		limit = want
	}
	chunk, err := f.client.segment(id, off, limit)
	if err != nil {
		return nil, err
	}
	f.bytesFetched.Add(uint64(len(chunk)))
	return chunk, nil
}

// mirrorSync copies everything the snapshot lists into the mirror
// without applying records: ranked segments staged-then-promoted
// around the manifest mirror, chain segments fetched raw to their
// listed sizes (a listed size is always a record boundary, so the
// mirror stays record-aligned). Used by bootstrap and reconcile, where
// the corpus is rebuilt by storage replay rather than incremental
// apply. Progress commits after each completed segment so a crashed
// bootstrap resumes instead of starting over.
func (f *Follower) mirrorSync(st *State) error {
	if err := f.mirrorRanked(st); err != nil {
		return err
	}
	if err := f.mirror.mirrorManifest(st.Manifest); err != nil {
		return err
	}
	if err := f.mirror.promoteStaged(); err != nil {
		return err
	}
	for _, seg := range st.chainSegments() {
		if seg.Quarantined {
			if f.mirror.written[seg.ID] != seg.Size {
				return fmt.Errorf("%w (segment %d)", errQuarantineGap, seg.ID)
			}
			continue
		}
		start := f.mirror.written[seg.ID]
		for off := start; off < seg.Size; {
			chunk, err := f.fetchChunk(seg.ID, off, seg.Size-off)
			if err != nil {
				return err
			}
			if len(chunk) == 0 {
				break
			}
			if err := f.mirror.writeAt(seg.ID, off, chunk); err != nil {
				return err
			}
			off += int64(len(chunk))
		}
		if f.mirror.written[seg.ID] == seg.Size && seg.Sealed {
			f.mirror.markDone(seg.ID)
		}
		if f.mirror.written[seg.ID] != start {
			if err := f.mirror.commitState(f.mirror.version); err != nil {
				return err
			}
		}
	}
	return nil
}

// reconcile handles records that moved beyond the follower's reach —
// re-homed into ranked outputs it never decodes. It completes a full
// mirror sync of the fresh snapshot, replays the mirror into a
// temporary corpus via the storage engine (which performs the ranked
// merge), then applies the per-slot difference to the live corpus so
// readers never lose the store: the live corpus converges without
// being swapped out.
func (f *Follower) reconcile(st *State) error {
	f.reconciles.Add(1)
	f.logf("follower: reconciling against primary snapshot at version %d", st.Version)
	f.tails = make(map[uint64][]byte)
	if err := f.mirrorSync(st); err != nil {
		return err
	}
	if err := f.mirror.commitState(f.mirror.version); err != nil {
		return err
	}
	listed := make(map[uint64]storage.SegmentInfo, len(st.Segments))
	for _, seg := range st.Segments {
		listed[seg.ID] = seg
	}
	if err := f.cleanup(listed); err != nil {
		return err
	}
	// The mirror now holds exactly the snapshot; closing handles lets
	// the temporary storage replay own the files for a moment.
	if err := f.mirror.close(); err != nil {
		return err
	}
	db, err := storage.Open(f.cfg.Dir, storage.Options{ReadOnly: true})
	if err != nil {
		return f.resync()
	}
	target, err := storage.LoadCorpus(db, f.cfg.Catalog)
	db.Close()
	if err != nil {
		return f.resync()
	}
	items := diffItems(f.corpus, target)
	if len(items) > 0 {
		for i, res := range f.corpus.ApplyBatch(items) {
			if res.Err != nil && !(items[i].Remove && errors.Is(res.Err, recipedb.ErrNoRecipe)) {
				return f.resync()
			}
		}
	}
	f.corpus.SyncVersion(st.Version)
	f.corpus.SyncSlots(st.Slots)
	f.mirror.slots = f.corpus.Slots()
	return f.mirror.commitState(f.corpus.Version())
}

// resync is the last-resort recovery: wipe the mirror and bootstrap
// from scratch. The live corpus keeps serving throughout; bootstrap
// builds a fresh target and reconciling it in happens via diff.
func (f *Follower) resync() error {
	f.logf("follower: local state inconsistent; full resync")
	old := f.corpus
	if err := f.bootstrap(); err != nil {
		f.corpus = old
		return err
	}
	if old != nil {
		// bootstrap replaced f.corpus with a fresh store, but the server
		// holds the old pointer; fold the fresh state into it instead.
		target := f.corpus
		f.corpus = old
		items := diffItems(old, target)
		if len(items) > 0 {
			for i, res := range old.ApplyBatch(items) {
				if res.Err != nil && !(items[i].Remove && errors.Is(res.Err, recipedb.ErrNoRecipe)) {
					return fmt.Errorf("replica: resync apply failed (slot %d): %w", items[i].ID, res.Err)
				}
			}
		}
		old.SyncVersion(target.Version())
		old.SyncSlots(target.Slots())
		f.mirror.slots = old.Slots()
		if err := f.mirror.commitState(old.Version()); err != nil {
			return err
		}
	}
	return nil
}

// cleanup removes local segments (and orphaned staging files) the
// snapshot no longer lists. Runs last in a round: every record such a
// segment held is covered by a ranked output fetched earlier, so any
// crash mid-cleanup leaves only harmless stale victims that replay
// before — and are overridden by — their replacement outputs.
func (f *Follower) cleanup(listed map[uint64]storage.SegmentInfo) error {
	for id := range f.mirror.written {
		if _, ok := listed[id]; ok {
			continue
		}
		if err := f.mirror.removeSegment(id); err != nil {
			return err
		}
		delete(f.tails, id)
	}
	for id := range f.mirror.staged {
		if _, ok := listed[id]; ok {
			continue
		}
		if err := f.mirror.dropStaged(id); err != nil {
			return err
		}
	}
	for id := range f.chainSeen {
		if _, ok := listed[id]; !ok {
			delete(f.chainSeen, id)
		}
	}
	return nil
}

// diffItems computes the batch that mutates live's state into
// target's, slot by slot.
func diffItems(live, target *recipedb.Store) []recipedb.BatchItem {
	var items []recipedb.BatchItem
	target.Read(func(tv *recipedb.View) {
		live.Read(func(lv *recipedb.View) {
			slots := tv.Slots()
			if lv.Slots() > slots {
				slots = lv.Slots()
			}
			for id := 0; id < slots; id++ {
				var t, l *recipedb.Recipe
				if id < tv.Slots() {
					t = tv.Recipe(id)
				}
				if id < lv.Slots() {
					l = lv.Recipe(id)
				}
				tLive := t != nil && !t.Deleted
				lLive := l != nil && !l.Deleted
				switch {
				case !tLive && !lLive:
				case !tLive && lLive:
					items = append(items, recipedb.BatchItem{Remove: true, ID: id})
				case tLive && (!lLive || !sameRecipe(t, l)):
					items = append(items, recipedb.BatchItem{
						ID: id, Name: t.Name, Region: t.Region, Source: t.Source,
						Ingredients: append([]flavor.ID(nil), t.Ingredients...),
					})
				}
			}
		})
	})
	return items
}

func sameRecipe(a, b *recipedb.Recipe) bool {
	if a.Name != b.Name || a.Region != b.Region || a.Source != b.Source || len(a.Ingredients) != len(b.Ingredients) {
		return false
	}
	for i := range a.Ingredients {
		if a.Ingredients[i] != b.Ingredients[i] {
			return false
		}
	}
	return true
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	f.lastErr = err.Error()
	f.errMu.Unlock()
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logger != nil {
		f.cfg.Logger.Printf(format, args...)
	}
}

// FollowerStats is a follower health snapshot for /api/health.
type FollowerStats struct {
	Primary        string `json:"primary"`
	PrimaryVersion uint64 `json:"primaryVersion"`
	Version        uint64 `json:"version"`
	Lag            uint64 `json:"lag"`
	Polls          uint64 `json:"polls"`
	PollErrors     uint64 `json:"pollErrors"`
	Reconciles     uint64 `json:"reconciles"`
	BytesFetched   uint64 `json:"bytesFetched"`
	LastError      string `json:"lastError,omitempty"`
}

// Stats returns the follower counters. Lag is the version distance to
// the last primary state seen (0 when caught up).
func (f *Follower) Stats() FollowerStats {
	f.errMu.Lock()
	lastErr := f.lastErr
	f.errMu.Unlock()
	pv := f.primaryVersion.Load()
	v := f.corpus.Version()
	var lag uint64
	if pv > v {
		lag = pv - v
	}
	return FollowerStats{
		Primary:        f.cfg.Primary,
		PrimaryVersion: pv,
		Version:        v,
		Lag:            lag,
		Polls:          f.polls.Load(),
		PollErrors:     f.pollErrors.Load(),
		Reconciles:     f.reconciles.Load(),
		BytesFetched:   f.bytesFetched.Load(),
		LastError:      lastErr,
	}
}
