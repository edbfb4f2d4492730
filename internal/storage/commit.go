package storage

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
)

// Group commit. Writers frame their record (CRC and all) outside any
// lock, join the pending commit group, and race for the commit token.
// Whoever wins becomes the leader: it snapshots the pending group,
// concatenates every framed record, appends them with one WriteAt and —
// when SyncEveryPut is set — one Sync, then applies the key-directory
// updates and wakes the whole group. Writers that arrive while a commit
// is in flight pile into the next group, so fsync and syscall costs
// amortize across concurrent callers while each call still returns only
// after its record is durable to the configured level.

// commitReq is one writer's record inside a commit group.
type commitReq struct {
	key    string
	rec    record
	framed []byte
	// skip marks a redundant tombstone: the leader's serialized
	// presence check found the key already absent, so nothing is
	// logged and the delete is a successful no-op.
	skip bool
	// written marks that the record's bytes reached the segment file;
	// synced marks that an fsync covering them succeeded. A record is
	// applied to the key directory only when written and — under
	// SyncEveryPut — synced: an unsynced record would otherwise be
	// visible despite its caller being told the write failed.
	written bool
	synced  bool
	// err is this request's outcome, set by the leader: nil exactly when
	// the record was applied (or resolved as a no-op), the batch error
	// otherwise. Requests in one group can differ — a mid-batch fault
	// fails only the records that did not reach the configured
	// durability level.
	err error
	// Location assigned by the leader for logged records.
	segID  uint64
	off    int64
	length int64
}

// result is what submit returns to this request's caller.
func (r *commitReq) result() error {
	if r.skip {
		return nil
	}
	return r.err
}

// applied reports whether the record reached the key directory.
func (r *commitReq) applied(syncEvery bool) bool {
	return !r.skip && r.written && (r.synced || !syncEvery)
}

// commitGroup is a batch of requests committed by one leader.
type commitGroup struct {
	reqs []*commitReq
	done chan struct{}
	err  error
}

// framePool recycles record-framing buffers across writers.
var framePool = sync.Pool{New: func() interface{} { return new([]byte) }}

// logRecord frames rec and drives it through the group-commit protocol.
func (s *Store) logRecord(key string, rec record) error {
	bufp := framePool.Get().(*[]byte)
	framed, err := appendRecord((*bufp)[:0], rec)
	if err != nil {
		framePool.Put(bufp)
		return err
	}
	req := &commitReq{key: key, rec: rec, framed: framed}
	err = s.submit(req)
	*bufp = framed[:0]
	framePool.Put(bufp)
	return err
}

// submit drives req through group commit and waits until some leader
// (possibly this goroutine) has committed the group containing it.
func (s *Store) submit(req *commitReq) error {
	// Fast-fail while the write path is degraded; the commit leader
	// re-checks under the token, so this is advisory only.
	if err := s.writeGate(); err != nil {
		return err
	}
	select {
	case s.commitTok <- struct{}{}:
		// Leader fast path. When the previous commit saw concurrent
		// writers, yield once so writers made runnable by that commit
		// can join this batch — without this, small-GOMAXPROCS
		// schedulers let one goroutine monopolize the token and every
		// batch degenerates to a single record (a blocking fsync does
		// not reliably hand the P to parked writers). The yield is
		// adaptive because it is wasted latency when this writer is
		// alone: a Gosched behind CPU-bound readers can stall for their
		// whole scheduler quantum.
		if s.grouping {
			runtime.Gosched()
		}
		s.pendMu.Lock()
		g := s.pending
		s.pending = nil
		if g == nil {
			g = &commitGroup{} // solo commit: nobody to signal
		}
		g.reqs = append(g.reqs, req)
		s.pendMu.Unlock()
		s.grouping = len(g.reqs) > 1
		g.err = s.commit(g)
		if g.done != nil {
			close(g.done)
		}
		<-s.commitTok
		return req.result()
	default:
	}

	// A commit is in flight: queue into the pending group, then wait —
	// racing for the token in case the current leader's batch detached
	// before our request joined.
	s.pendMu.Lock()
	if s.closed.Load() {
		s.pendMu.Unlock()
		return ErrClosed
	}
	g := s.pending
	if g == nil {
		g = &commitGroup{done: make(chan struct{})}
		s.pending = g
	}
	g.reqs = append(g.reqs, req)
	s.pendMu.Unlock()

	select {
	case s.commitTok <- struct{}{}:
		// Leader: commit whatever group is pending now. That is usually
		// our own; if another leader already took it, we help by
		// committing the successor batch.
		s.commitNext()
		<-s.commitTok
	case <-g.done:
	}
	<-g.done
	return req.result()
}

// commitNext detaches the pending group and commits it. Caller holds
// the commit token. Reaching this path at all means the token was
// contended, so future leaders should pause for company.
func (s *Store) commitNext() {
	s.grouping = true
	s.pendMu.Lock()
	g := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	if g == nil {
		return
	}
	g.err = s.commit(g)
	close(g.done)
}

// commit appends one group to the log and applies it to the key
// directory. Caller holds the commit token, so this is the only
// goroutine mutating the active segment or shard maps.
//
// Failure semantics: a record is applied to the key directory exactly
// when its caller is acknowledged — its bytes reached the file and,
// under SyncEveryPut, an fsync covering them succeeded. A mid-batch
// fault therefore splits the group: the prefix that reached the
// configured durability level is applied and those callers get nil;
// every other caller gets the error and its record is never visible
// (recovery trims the bytes; see health.go). Without SyncEveryPut the
// ack level is "written", the usual WAL contract — visibility on ack,
// durability at the next successful sync. Any I/O failure also
// poisons the active segment and degrades the store to read-only
// until recovery rotates a fresh segment (degradeWrites).
func (s *Store) commit(g *commitGroup) error {
	err := s.writeGate()
	if err == nil {
		err = s.appendGroup(g)
		if err != nil && !errors.Is(err, ErrClosed) {
			s.degradeWrites(err)
		}
	}
	s.applyGroup(g)
	if err != nil {
		for _, req := range g.reqs {
			if !req.applied(s.opts.SyncEveryPut) {
				req.err = err
			}
		}
	}
	return err
}

// appendGroup resolves redundant tombstones and appends the group's
// records to the log, marking each request whose bytes were written.
func (s *Store) appendGroup(g *commitGroup) error {
	if s.closed.Load() {
		return ErrClosed
	}

	// Pass 1: resolve redundant tombstones against the serialized view:
	// shard state plus the effect of earlier requests in this batch.
	var effects map[string]bool // key -> present after the processed prefix
	for i, req := range g.reqs {
		if !req.rec.tombstone {
			if effects != nil {
				effects[req.key] = true
			}
			continue
		}
		if effects == nil {
			effects = make(map[string]bool, len(g.reqs))
			for _, p := range g.reqs[:i] {
				effects[p.key] = true // only puts precede the first tombstone
			}
		}
		present, tracked := effects[req.key]
		if !tracked {
			present = s.shardFor(req.key).has(req.key)
		}
		if !present {
			req.skip = true
			continue
		}
		effects[req.key] = false
	}

	// Pass 2: assign locations and append, one WriteAt per chunk. A
	// chunk ends when the active segment fills (same rotate-after-write
	// semantics as a serial append: a record never splits, the segment
	// may overshoot by the final record).
	order := make([]*commitReq, 0, len(g.reqs))
	for _, req := range g.reqs {
		if !req.skip {
			order = append(order, req)
		}
	}
	chunk := s.commitBuf[:0]
	chunkStart := s.active.size
	chunkFirst := 0   // index in order of the first record in the open chunk
	unsynced := false // becomes true once written bytes lack a covering sync
	flush := func(upTo int) error {
		if len(chunk) == 0 {
			return nil
		}
		if _, err := s.active.f.WriteAt(chunk, chunkStart); err != nil {
			return fmt.Errorf("storage: appending batch: %w", err)
		}
		s.active.size = chunkStart + int64(len(chunk))
		for _, r := range order[chunkFirst:upTo] {
			r.written = true
		}
		chunkFirst = upTo
		chunk = chunk[:0]
		unsynced = true
		return nil
	}
	// markSynced records that every written request is now covered by a
	// successful fsync (rotation's seal or the final group sync).
	markSynced := func() {
		for _, r := range order {
			if r.written {
				r.synced = true
			}
		}
		unsynced = false
	}
	for i, req := range order {
		req.segID = s.active.id
		req.off = chunkStart + int64(len(chunk))
		req.length = int64(len(req.framed))
		chunk = append(chunk, req.framed...)
		if chunkStart+int64(len(chunk)) >= s.opts.MaxSegmentBytes {
			if err := flush(i + 1); err != nil {
				s.stashCommitBuf(chunk)
				return err
			}
			if err := s.rotate(); err != nil { // syncs the sealed segment
				s.stashCommitBuf(chunk)
				return err
			}
			markSynced()
			chunkStart = 0
		}
	}
	err := flush(len(order))
	s.stashCommitBuf(chunk)
	if err != nil {
		return err
	}
	if s.opts.SyncEveryPut && unsynced {
		if err := s.syncActive(); err != nil {
			s.active.syncFailed.Store(true)
			return fmt.Errorf("storage: fsync: %w", err)
		}
		s.active.syncedSize.Store(s.active.size)
		markSynced()
	}
	return nil
}

// syncActive flushes the active segment's appended bytes — the
// group-commit hot path. On linux this is fdatasync: with preallocated
// segments the inode is untouched between batches, so the flush skips
// the metadata journal entirely (~20% off a small-batch commit on
// ext4). Elsewhere, and for test seams that are not *os.File, it is a
// plain fsync.
func (s *Store) syncActive() error {
	if ef, ok := s.active.f.(*errFile); ok {
		// Injected files take the datasync fast path too, but the
		// injector must see the op first or FaultSync could never hit
		// the group-commit sync.
		if err, _ := ef.i.check(FaultSync); err != nil {
			return err
		}
		return datasync(ef.f)
	}
	if f, ok := s.active.f.(*os.File); ok {
		return datasync(f)
	}
	return s.active.f.Sync()
}

// applyGroup applies the acknowledged records' key-directory updates
// in log order. Requests that never reached the file (skipped
// tombstones, records after a failed flush) are left out, as are
// written records whose covering fsync failed under SyncEveryPut —
// their callers are told the write failed, so showing the record to
// readers would acknowledge it through the back door.
func (s *Store) applyGroup(g *commitGroup) {
	syncEvery := s.opts.SyncEveryPut
	for _, req := range g.reqs {
		if !req.applied(syncEvery) {
			continue
		}
		sh := s.shardFor(req.key)
		sh.mu.Lock()
		if prev, ok := sh.m[req.key]; ok {
			s.addDead(prev.segID, prev.length)
		}
		if req.rec.tombstone {
			delete(sh.m, req.key)
			// The tombstone itself is reclaimable the moment it lands.
			s.addDead(req.segID, req.length)
		} else {
			sh.m[req.key] = keyLoc{
				segID:  req.segID,
				offset: req.off,
				length: req.length,
				valLen: len(req.rec.value),
			}
		}
		sh.mu.Unlock()
	}
}

// addDead charges n garbage bytes to the segment holding a superseded
// record or tombstone. The per-segment counter is the compaction
// victim-selection statistic; it replaces the old store-global estimate
// so the compactor can pick exactly the files worth rewriting. A
// missing segment means compaction retired it concurrently — its
// garbage left with it.
func (s *Store) addDead(segID uint64, n int64) {
	s.segMu.RLock()
	if seg := s.segments[segID]; seg != nil {
		seg.dead.Add(n)
	}
	s.segMu.RUnlock()
}

// commitBufRetainBytes bounds the leader buffer kept across commits; a
// burst of large concurrent values can grow one batch toward the
// segment size, and pinning that forever would cost ~MaxSegmentBytes
// of idle memory per store.
const commitBufRetainBytes = 1 << 20

// stashCommitBuf parks the leader's concatenation buffer for reuse,
// dropping it when a burst grew it past the retain bound.
func (s *Store) stashCommitBuf(chunk []byte) {
	if cap(chunk) > commitBufRetainBytes {
		s.commitBuf = nil
		return
	}
	s.commitBuf = chunk[:0]
}

// rotate seals the active segment and starts a fresh, preallocated
// one. Caller holds the commit token (or is inside single-threaded
// Open). IDs come from the shared nextSegID counter so rotation never
// collides with compaction outputs allocated concurrently.
func (s *Store) rotate() error {
	if s.active != nil {
		if err := s.sealActive(); err != nil {
			return err
		}
	}
	return s.newActiveSegment()
}

// newActiveSegment creates, preallocates and installs a fresh active
// segment without touching its predecessor. rotate seals the old one
// first; write recovery instead leaves the poisoned predecessor in
// place until its salvageable tail has been copied out (health.go).
func (s *Store) newActiveSegment() error {
	next := s.nextSegID.Add(1)
	path := segmentPath(s.dir, next)
	inj := s.opts.FaultInjection
	if inj != nil {
		if err, _ := inj.check(FaultCreate); err != nil {
			return fmt.Errorf("storage: creating segment: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating segment: %w", err)
	}
	if err := preallocate(f, s.opts.MaxSegmentBytes); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("storage: preallocating segment: %w", err)
	}
	// Make the dirent durable before any acknowledged write lands in
	// the new file: fdatasync/fsync of the file alone does not persist
	// its directory entry, and a crash could otherwise drop the whole
	// segment — and every SyncEveryPut write it acknowledged — at Open.
	if err := s.syncDirActive(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("storage: syncing dir after segment create: %w", err)
	}
	var sf segfile = f
	if inj != nil {
		sf = inj.wrapFile(f)
	}
	seg := &segment{id: next, path: path, f: sf, rank: next}
	s.segMu.Lock()
	s.segments[next] = seg
	s.active = seg
	s.segMu.Unlock()
	return nil
}

// syncDirActive fsyncs the store directory on the write path, routed
// through the injector when one is configured. The compaction seam has
// its own hook (fsOps.syncDir) so the crash harness stays undisturbed.
func (s *Store) syncDirActive() error {
	if inj := s.opts.FaultInjection; inj != nil {
		if err, _ := inj.check(FaultSyncDir); err != nil {
			return err
		}
	}
	return syncDir(s.dir)
}

// sealActive finalizes the active segment on rotation: the
// preallocated tail is trimmed (so replay never sees the zero region —
// the sealed invariant is file size == data size) and the data is
// fsynced. Ordering matters for crash safety: the trim and sync land
// before the successor segment is created, so a sealed segment on disk
// never carries a preallocated tail — only the newest segment can, and
// tail repair at Open truncates it instead of replaying it.
func (s *Store) sealActive() error {
	old := s.active
	if f := osFile(old.f); f != nil {
		if err := f.Truncate(old.size); err != nil {
			return fmt.Errorf("storage: trimming sealed segment: %w", err)
		}
	}
	if err := old.f.Sync(); err != nil {
		// The failed fsync forfeits this file: dirty pages may now be
		// marked clean, so a retried fsync could claim durability the
		// disk never provided. Recovery must rotate away from it.
		old.syncFailed.Store(true)
		return fmt.Errorf("storage: syncing sealed segment: %w", err)
	}
	old.syncedSize.Store(old.size)
	return nil
}
