package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/fanin"
)

// Store errors.
var (
	// ErrNotFound is returned by Get for absent keys.
	ErrNotFound = errors.New("storage: key not found")
	// ErrClosed is returned by operations on a closed store.
	ErrClosed = errors.New("storage: store is closed")
	// ErrReadOnly is returned by mutating operations on a store opened
	// with Options.ReadOnly (an inspector beside the directory's owner).
	ErrReadOnly = errors.New("storage: store is read-only")
)

// Options configures a Store. The zero value is usable; fields default
// as documented.
type Options struct {
	// MaxSegmentBytes rotates the active segment once it exceeds this
	// size. Defaults to 8 MiB.
	MaxSegmentBytes int64
	// SyncEveryPut guarantees that when Put/Delete returns, the record
	// is fsynced. Writes that arrive concurrently share one fsync (group
	// commit), so the durability contract costs one Sync per batch, not
	// per call. Defaults to false (sync on rotation/Close/Sync only).
	SyncEveryPut bool
	// CompactionFloorBytes is the minimum dead-byte volume before
	// NeedsCompaction reports true. Defaults to 1 MiB.
	CompactionFloorBytes int64
	// CompactInterval starts a background compactor that wakes at this
	// period, picks sealed segments whose garbage ratio meets
	// CompactGarbageRatio, and rewrites them without blocking reads or
	// writes. Zero (the default) disables the background goroutine;
	// Compact remains available for explicit full passes.
	CompactInterval time.Duration
	// CompactGarbageRatio is the dead-byte fraction at which a sealed
	// segment becomes a compaction victim. Defaults to 0.5.
	CompactGarbageRatio float64
	// WriteProbeInterval starts a background probe that, while the
	// write path is degraded by a runtime I/O fault (see health.go),
	// periodically attempts TryRecoverWrites so mutations resume
	// automatically once the fault clears. Zero (the default) disables
	// the goroutine; TryRecoverWrites remains available for explicit
	// recovery (and gives tests deterministic control).
	WriteProbeInterval time.Duration
	// ScrubInterval starts a background scrubber that CRC-walks one
	// sealed segment per tick, quarantining and salvaging corrupt ones
	// (see scrub.go). Zero (the default) disables the goroutine; Scrub
	// remains available for explicit full passes.
	ScrubInterval time.Duration
	// FaultInjection, when set, routes every write-path and
	// compaction/manifest filesystem operation through an error
	// injector (see errfs.go). Testing only: it simulates EIO, ENOSPC,
	// EDQUOT and torn writes while the process keeps running.
	FaultInjection *ErrInjector
	// ReadOnly opens the store for reads only: every mutating entry
	// point (Put, Delete, Sync, WriteBatch, Compact, Scrub) fails with
	// ErrReadOnly, no background goroutines start, and an empty
	// directory opens with no active segment rather than creating one.
	// Tail repair on the newest segment still runs; beside a live owner
	// it only drops the zero tail the owner's next write re-extends.
	// This is the mode tools that only look (cmd/culinarydb -dbinfo,
	// cmd/query -db) open a directory in.
	ReadOnly bool
}

func (o *Options) applyDefaults() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.CompactionFloorBytes <= 0 {
		o.CompactionFloorBytes = 1 << 20
	}
	if o.CompactGarbageRatio <= 0 || o.CompactGarbageRatio > 1 {
		o.CompactGarbageRatio = 0.5
	}
}

// keyLoc locates the live value of a key.
type keyLoc struct {
	segID  uint64
	offset int64
	length int64 // framed length on disk
	valLen int   // decoded value length (cheap Len/stat answers)
}

// Store is the log-structured key-value store. All methods are safe for
// concurrent use. The key directory is one map under one RWMutex: its
// writers are the commit leader (once per group), the compactor's flip
// and the scrubber, its readers the boot Fold, Stats and tools, so there
// is no concurrent point-read traffic for a finer lock to serve. Appends
// to the shared log are batched by a group-commit protocol (see
// commit.go). Lock order: keyMu before segMu.
type Store struct {
	dir  string
	opts Options
	// fs is the filesystem seam for compaction outputs and manifest
	// writes; tests swap it for a fault-injecting version.
	fs fsOps

	keyMu  sync.RWMutex
	keydir map[string]keyLoc

	closed atomic.Bool
	// nextSegID is the last segment ID handed out; rotation and
	// compaction both allocate from it so IDs are never reused even
	// when compaction outputs outlive the active segment they were
	// created under.
	nextSegID atomic.Uint64

	// segMu guards the segments map and the active pointer (the active
	// segment's size is still mutated only under the commit token).
	segMu    sync.RWMutex
	segments map[uint64]*segment
	active   *segment

	// Compaction state: compactMu serializes compaction passes (the
	// background goroutine, explicit Compact calls, scrub salvage and
	// write recovery) and guards the in-memory manifest.
	compactMu sync.Mutex
	man       manifest
	compactor compactorState
	cstats    compactionCounters

	// Fault-tolerance state: the write-path health machine (health.go)
	// and the background segment scrubber (scrub.go).
	whealth writeHealth
	scrub   scrubState

	// commits groups concurrent WriteBatch calls into one commit
	// (commit.go) each. "Holding the commit token" in this package means
	// holding its token, inside a run or via Lock: the holder is the only
	// goroutine appending to, mutating or rotating the active segment.
	commits   *fanin.Queue[*commitReq]
	commitBuf []byte // leader-owned concatenation buffer
}

// Open opens (creating if necessary) a store rooted at dir, replaying
// all segments in (rank, id) order to rebuild the key directory (see
// replay.go). A torn tail on the newest segment is truncated away;
// corruption anywhere else fails Open, which then closes every segment
// it had opened. A crash during an incremental compaction recovers to a
// consistent pre- or post-compaction segment set (see manifest.go):
// orphaned outputs are deleted, committed ones rolled forward,
// superseded victims unlinked. When opts.CompactInterval is set, a
// background compactor starts.
func Open(dir string, opts Options) (*Store, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating dir: %w", err)
	}
	s := &Store{
		dir:      dir,
		opts:     opts,
		fs:       osFS(),
		keydir:   make(map[string]keyLoc),
		segments: make(map[uint64]*segment),
		commits:  fanin.New[*commitReq](),
	}
	if opts.FaultInjection != nil {
		// The injector wraps the compaction/manifest seam here and the
		// active-segment operations inside rotate/syncActive, covering
		// the whole write/rotate/compact/manifest sequence.
		s.fs = opts.FaultInjection.wrapFS(s.fs)
	}
	ids, err := s.recoverDir()
	if err == nil {
		err = s.loadSegments(ids)
	}
	if err == nil && s.active == nil && !opts.ReadOnly {
		err = s.rotate()
	}
	if err != nil {
		// Nothing else holds these descriptors; left open they would
		// wait for finalizers.
		for _, seg := range s.segments {
			seg.f.Close()
		}
		return nil, err
	}
	if opts.ReadOnly {
		// Nothing mutates a read-only store, so the write probe,
		// compactor and scrubber have no work; starting them would only
		// let a background pass race the process that owns this
		// directory's contents.
		return s, nil
	}
	// A recovered active segment is deliberately NOT re-preallocated:
	// its file size stays its logical size, so offline scans of the
	// directory (tools, test helpers) keep working by id order while
	// the store runs. Preallocation resumes at the first rotation.
	if opts.CompactInterval > 0 {
		s.startCompactor(opts.CompactInterval, opts.CompactGarbageRatio)
	}
	if opts.WriteProbeInterval > 0 {
		s.startWriteProbe(opts.WriteProbeInterval)
	}
	if opts.ScrubInterval > 0 {
		s.startScrubber(opts.ScrubInterval)
	}
	return s, nil
}

// recoverDir loads the manifest and resolves any half-finished
// compaction the previous process crashed out of, returning the
// committed segment IDs to replay. Outputs listed in the manifest but
// still at their staging name are rolled forward (their bytes were
// durable before the manifest committed); unlisted staging files are
// deleted; victims on the Drop list are unlinked.
func (s *Store) recoverDir() ([]uint64, error) {
	man, err := loadManifest(s.dir)
	if err != nil {
		return nil, err
	}
	s.man = man
	ids, tmps, err := scanDir(s.dir)
	if err != nil {
		return nil, err
	}
	have := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range tmps {
		tmp := segmentTmpPath(s.dir, id)
		if _, committed := man.Ranks[id]; committed && !have[id] {
			if err := os.Rename(tmp, segmentPath(s.dir, id)); err != nil {
				return nil, fmt.Errorf("storage: rolling forward compaction output: %w", err)
			}
			have[id] = true
			ids = append(ids, id)
			continue
		}
		if err := os.Remove(tmp); err != nil {
			return nil, fmt.Errorf("storage: removing orphaned compaction output: %w", err)
		}
	}
	// Half-written manifest temp from a crash mid-commit: harmless.
	os.Remove(filepath.Join(s.dir, manifestName+segTmpExt))
	for _, id := range man.Drop {
		if !have[id] {
			continue
		}
		if err := os.Remove(segmentPath(s.dir, id)); err != nil {
			return nil, fmt.Errorf("storage: dropping superseded segment: %w", err)
		}
		delete(have, id)
	}
	ids = ids[:0]
	for id := range have {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Never reuse an ID named anywhere, even for files already gone.
	max := uint64(0)
	for _, id := range ids {
		if id > max {
			max = id
		}
	}
	for id := range man.Ranks {
		if id > max {
			max = id
		}
	}
	for _, id := range man.Drop {
		if id > max {
			max = id
		}
	}
	s.nextSegID.Store(max)
	return ids, nil
}

// Put stores value under key, overwriting any previous value.
func (s *Store) Put(key string, value []byte) error {
	return s.WriteBatch([]string{key}, [][]byte{value}, []bool{false})[0]
}

// Delete removes key. Deleting an absent key is a no-op. The
// authoritative presence check happens on the serialized commit path,
// so racing deletes of the same key log exactly one tombstone (the
// tombstone survives restarts during compaction).
func (s *Store) Delete(key string) error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if !s.Has(key) {
		// Fast path: already absent. Racy, but the commit leader
		// re-checks under its serialized view before logging.
		return nil
	}
	return s.WriteBatch([]string{key}, [][]byte{nil}, []bool{true})[0]
}

// Get returns the value stored under key, read from its segment with
// one pread.
func (s *Store) Get(key string) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	for {
		s.keyMu.RLock()
		loc, ok := s.keydir[key]
		s.keyMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		s.segMu.RLock()
		seg := s.segments[loc.segID]
		if seg != nil {
			seg.acquire()
		}
		s.segMu.RUnlock()
		if seg == nil {
			// Compaction retired the segment between the two lookups;
			// the refreshed keydir entry points at the rewritten copy.
			if s.closed.Load() {
				return nil, ErrClosed
			}
			continue
		}
		val, err := readValue(seg, loc, key)
		seg.release()
		return val, err
	}
}

// readValue fetches and decodes one record while the caller holds a
// pin on seg.
func readValue(seg *segment, loc keyLoc, key string) ([]byte, error) {
	buf := make([]byte, loc.length)
	if _, err := seg.f.ReadAt(buf, loc.offset); err != nil {
		return nil, fmt.Errorf("storage: reading %q: %w", key, err)
	}
	val, err := decodeFramedValue(buf, key)
	if err != nil {
		return nil, fmt.Errorf("storage: decoding %q: %w", key, err)
	}
	return val, nil
}

// Has reports whether key is present.
func (s *Store) Has(key string) bool {
	s.keyMu.RLock()
	_, ok := s.keydir[key]
	s.keyMu.RUnlock()
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	return len(s.keydir)
}

// Keys returns all live keys, sorted. Intended for tools and tests; the
// result is O(n) fresh memory taken from one consistent view.
func (s *Store) Keys() []string {
	s.keyMu.RLock()
	out := make([]string, 0, len(s.keydir))
	for k := range s.keydir {
		out = append(out, k)
	}
	s.keyMu.RUnlock()
	sort.Strings(out)
	return out
}

// KeysWithPrefix returns live keys beginning with prefix, sorted.
func (s *Store) KeysWithPrefix(prefix string) []string {
	s.keyMu.RLock()
	var out []string
	for k := range s.keydir {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	s.keyMu.RUnlock()
	sort.Strings(out)
	return out
}

// foldEntry pairs one snapshot key with its location and, later, its
// decoded value.
type foldEntry struct {
	key string
	loc keyLoc
	val []byte
}

// Fold calls fn for every live key/value pair in sorted key order,
// stopping at the first error. It snapshots the key directory once and
// pins the referenced segments, so the fold sees a consistent view
// through concurrent writes, rotation and compaction. Values are read
// in bounded batches (~foldBatchBytes of live data at a time): within
// a batch, records are fetched in (segID, offset) order with runs of
// nearby records coalesced into single chunked reads, so a fold costs
// O(bytes/chunk) syscalls instead of one per key while holding only
// one batch of values in memory.
func (s *Store) Fold(fn func(key string, value []byte) error) error {
	if s.closed.Load() {
		return ErrClosed
	}

	// Snapshot locations and pin segments under one consistent view, so
	// concurrent writes, rotation and compaction cannot disturb the
	// records the fold will read.
	s.keyMu.RLock()
	entries := make([]foldEntry, 0, len(s.keydir))
	for k, loc := range s.keydir {
		entries = append(entries, foldEntry{key: k, loc: loc})
	}
	s.segMu.RLock()
	pinned := make([]*segment, 0, len(s.segments))
	segByID := make(map[uint64]*segment, len(s.segments))
	for id, seg := range s.segments {
		seg.acquire()
		pinned = append(pinned, seg)
		segByID[id] = seg
	}
	s.segMu.RUnlock()
	s.keyMu.RUnlock()
	defer func() {
		for _, seg := range pinned {
			seg.release()
		}
	}()

	// Deliver in sorted key order, reading one bounded batch of values
	// ahead. Each batch is fetched in (segID, offset) order with nearby
	// records coalesced into chunked reads, so memory stays
	// O(foldBatchBytes + one value) instead of the whole live set.
	// Decoded values alias their chunk (decodeFramedValue copies
	// nothing); a batch's chunks become collectable once the next batch
	// starts.
	slices.SortFunc(entries, func(a, b foldEntry) int { return strings.Compare(a.key, b.key) })
	for start := 0; start < len(entries); {
		end := start
		var batchBytes int64
		for end < len(entries) && (end == start || batchBytes+entries[end].loc.length <= foldBatchBytes) {
			batchBytes += entries[end].loc.length
			end++
		}
		if err := s.readFoldBatch(entries[start:end], segByID); err != nil {
			return err
		}
		for i := start; i < end; i++ {
			if err := fn(entries[i].key, entries[i].val); err != nil {
				return err
			}
			entries[i].val = nil
		}
		start = end
	}
	return nil
}

// readFoldBatch fills val for one batch of snapshot entries, fetching
// records in (segID, offset) order and coalescing runs of nearby
// records into single chunked reads.
func (s *Store) readFoldBatch(batch []foldEntry, segByID map[uint64]*segment) error {
	byOffset := make([]*foldEntry, len(batch))
	for i := range batch {
		byOffset[i] = &batch[i]
	}
	sort.Slice(byOffset, func(i, j int) bool {
		a, b := byOffset[i].loc, byOffset[j].loc
		if a.segID != b.segID {
			return a.segID < b.segID
		}
		return a.offset < b.offset
	})
	for i := 0; i < len(byOffset); {
		first := byOffset[i].loc
		seg := segByID[first.segID]
		if seg == nil {
			// Compaction cannot outrun the snapshot (its flip needs the
			// keydir write lock the fold held), so a vanished segment means
			// the store was closed underneath us.
			if s.closed.Load() {
				return ErrClosed
			}
			return fmt.Errorf("%w: fold snapshot references missing segment %d", ErrCorrupt, first.segID)
		}
		start, end := first.offset, first.offset+first.length
		j := i + 1
		for j < len(byOffset) {
			next := byOffset[j].loc
			if next.segID != first.segID || next.offset+next.length-start > foldChunkBytes {
				break
			}
			end = next.offset + next.length
			j++
		}
		chunk := make([]byte, end-start)
		if _, err := seg.f.ReadAt(chunk, start); err != nil {
			return fmt.Errorf("storage: fold reading segment %d: %w", first.segID, err)
		}
		for ; i < j; i++ {
			e := byOffset[i]
			rel := e.loc.offset - start
			// Full slice expression: cap the value at its record, so a
			// callback appending to it reallocates instead of clobbering
			// the chunk bytes backing later records.
			val, err := decodeFramedValue(chunk[rel:rel+e.loc.length:rel+e.loc.length], e.key)
			if err != nil {
				return fmt.Errorf("storage: decoding %q: %w", e.key, err)
			}
			e.val = val
		}
	}
	return nil
}

// Fold I/O tuning. foldBatchBytes bounds the live value bytes resident
// per delivery batch; foldChunkBytes bounds one coalesced read (gaps
// from dead records inside the span are read and skipped, so it also
// bounds wasted I/O per chunk).
const (
	foldBatchBytes = 8 << 20
	foldChunkBytes = 1 << 20
)

// Sync flushes the active segment to stable storage, ordered after
// every previously completed write (fdatasync on linux — data plus the
// metadata needed to read it back). While the write path is degraded
// Sync fails with ErrWriteWedged rather than fsyncing a file whose
// fsync already failed — after a failed fsync the kernel may have
// marked dirty pages clean, so a retry could claim durability the disk
// never provided. Recovery re-establishes it with a fresh segment.
func (s *Store) Sync() error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	s.commits.Lock()
	defer s.commits.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	if err := s.syncActive(); err != nil {
		s.active.syncFailed.Store(true)
		err = fmt.Errorf("storage: fsync: %w", err)
		s.degradeWrites(err)
		return err
	}
	s.active.syncedSize = s.active.size
	return nil
}

// Stats reports store-level statistics.
type Stats struct {
	// Keys is the live key count.
	Keys int
	// Segments is the number of data files.
	Segments int
	// LiveBytes is the total framed size of live records.
	LiveBytes int64
	// DeadBytes estimates reclaimable space (superseded records and
	// tombstones).
	DeadBytes int64
}

// Stats returns statistics from one consistent view of the directory.
func (s *Store) Stats() Stats {
	s.keyMu.RLock()
	var live int64
	for _, loc := range s.keydir {
		live += loc.length
	}
	s.segMu.RLock()
	st := Stats{Keys: len(s.keydir), Segments: len(s.segments), LiveBytes: live}
	for _, seg := range s.segments {
		st.DeadBytes += seg.dead.Load()
	}
	s.segMu.RUnlock()
	s.keyMu.RUnlock()
	return st
}

// Close stops the background goroutines, syncs and closes every segment.
// The store is unusable afterward: a writer queued behind Close fails
// with ErrClosed when its commit runs. Segments still pinned by
// in-flight reads close once those reads release them.
func (s *Store) Close() error {
	s.compactor.loop.stop()
	s.whealth.probe.stop()
	s.scrub.loop.stop()
	s.commits.Lock()
	defer s.commits.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)

	var firstErr error
	if s.active != nil && !s.opts.ReadOnly {
		// Trim the preallocated tail so the file's size is its logical
		// size again — the next Open then replays it without tail
		// repair, and the sealed-segment invariant (file size == data
		// size) holds.
		if f := osFile(s.active.f); f != nil {
			if err := f.Truncate(s.active.size); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if s.active.syncFailed.Load() {
			// Never re-fsync a file whose fsync failed (see health.go);
			// surface the degradation instead of silently succeeding.
			if firstErr == nil {
				firstErr = s.wedgedErr()
			}
		} else if err := s.active.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.segMu.Lock()
	for _, seg := range s.segments {
		if err := seg.retire(false); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.segments = map[uint64]*segment{}
	s.segMu.Unlock()
	return firstErr
}
