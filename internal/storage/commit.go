package storage

import (
	"errors"
	"fmt"
	"os"
)

// Group commit. Writers frame their records (CRC and all) outside any
// lock and hand them to the commit queue (internal/fanin, which owns the
// leader/follower protocol). commit below is the queue's run function:
// the leader concatenates every framed record of the group, appends them
// with one WriteAt per segment chunk and — when SyncEveryPut is set — one
// Sync, then applies the key-directory updates. fsync and syscall costs
// amortize across concurrent callers while each call still returns only
// after its record is durable to the configured level.

// commitReq is one record inside a commit group.
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

// applied reports whether the record reached the key directory.
func (r *commitReq) applied(syncEvery bool) bool {
	return !r.skip && r.written && (r.synced || !syncEvery)
}

// commit appends one group to the log and applies it to the key
// directory. Caller holds the commit token, so this is the only
// goroutine mutating the active segment or applying commits to the
// keydir.
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
func (s *Store) commit(reqs []*commitReq) {
	err := s.writeGate()
	if err == nil {
		err = s.appendGroup(reqs)
		if err != nil && !errors.Is(err, ErrClosed) {
			s.degradeWrites(err)
		}
	}
	s.applyGroup(reqs)
	if err != nil {
		for _, req := range reqs {
			if !req.skip && !req.applied(s.opts.SyncEveryPut) {
				req.err = err
			}
		}
	}
}

// appendGroup resolves redundant tombstones and appends the group's
// records to the log, marking each request whose bytes were written.
func (s *Store) appendGroup(reqs []*commitReq) error {
	if s.closed.Load() {
		return ErrClosed
	}

	// Pass 1: resolve redundant tombstones against the serialized view:
	// keydir state plus the effect of earlier requests in this batch.
	var effects map[string]bool // key -> present after the processed prefix
	for i, req := range reqs {
		if !req.rec.tombstone {
			if effects != nil {
				effects[req.key] = true
			}
			continue
		}
		if effects == nil {
			effects = make(map[string]bool, len(reqs))
			for _, p := range reqs[:i] {
				effects[p.key] = true // only puts precede the first tombstone
			}
		}
		present, tracked := effects[req.key]
		if !tracked {
			present = s.Has(req.key)
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
	order := make([]*commitReq, 0, len(reqs))
	for _, req := range reqs {
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
		s.active.syncedSize = s.active.size
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
// readers would acknowledge it through the back door. The whole group
// applies under one hold of the keydir lock.
func (s *Store) applyGroup(reqs []*commitReq) {
	syncEvery := s.opts.SyncEveryPut
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	for _, req := range reqs {
		if !req.applied(syncEvery) {
			continue
		}
		if prev, ok := s.keydir[req.key]; ok {
			s.addDead(prev.segID, prev.length)
		}
		if req.rec.tombstone {
			delete(s.keydir, req.key)
			// The tombstone itself is reclaimable the moment it lands.
			s.addDead(req.segID, req.length)
		} else {
			s.keydir[req.key] = keyLoc{
				segID:  req.segID,
				offset: req.off,
				length: req.length,
				valLen: len(req.rec.value),
			}
		}
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
	old.syncedSize = old.size
	return nil
}
