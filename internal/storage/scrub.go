package storage

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Background segment scrub. The CRC32C in every frame is otherwise
// only verified on the read path of a requested key, so latent
// corruption in a cold sealed segment — a bit flip on disk, a torn
// sector — goes undetected until a user request happens to land on
// it, and until then every compaction of that segment would fail. The
// scrubber is a paced goroutine (Options.ScrubInterval) that CRC-walks
// one sealed segment per tick, round-robin. A clean walk bumps the
// verify counters; a corrupt one quarantines the segment (compaction
// stops selecting it — its scan would fail) and triggers salvage: the
// key directory knows exactly which frames are live, so each is
// re-verified at its known offset and the intact ones are rewritten
// through the compaction machinery (staged outputs, manifest commit,
// keydir flip), tombstones rescued by a lenient walk, and the corrupt
// file retired. Frames that fail verification are lost: their keydir
// entries are dropped (counted in RecordsLost) rather than left
// dangling for readers to error on forever.

// scrubState is the scrubber's lifecycle and counters.
type scrubState struct {
	loop bgLoop
	// cursor is the last segment ID scrubbed; each tick verifies the
	// next sealed segment above it, wrapping at the top.
	cursor atomic.Uint64

	runs             atomic.Uint64
	segmentsVerified atomic.Uint64
	bytesVerified    atomic.Uint64
	corruptions      atomic.Uint64
	salvagedRecords  atomic.Uint64
	lostRecords      atomic.Uint64
	lastErr          atomic.Value // string
}

// ScrubStats reports background scrub activity.
type ScrubStats struct {
	// Running reports whether the scrub goroutine is alive.
	Running bool
	// Runs counts scrub passes (one verified segment each, plus any
	// salvage retries).
	Runs uint64
	// SegmentsVerified counts clean CRC walks; BytesVerified the bytes
	// they covered. A segment verified N times counts N.
	SegmentsVerified uint64
	BytesVerified    uint64
	// CorruptionsFound counts segments whose walk hit a CRC or framing
	// error and were quarantined.
	CorruptionsFound uint64
	// RecordsSalvaged counts live records rewritten intact out of
	// quarantined segments; RecordsLost counts live records whose
	// frames failed verification and whose keys were dropped.
	RecordsSalvaged uint64
	RecordsLost     uint64
	// LastError is the most recent scrub I/O or salvage failure, if
	// any (corruption detections are not errors — they are the job).
	LastError string
}

// ScrubStats returns a snapshot of scrub activity.
func (s *Store) ScrubStats() ScrubStats {
	st := ScrubStats{
		Running:          s.scrub.loop.running(),
		Runs:             s.scrub.runs.Load(),
		SegmentsVerified: s.scrub.segmentsVerified.Load(),
		BytesVerified:    s.scrub.bytesVerified.Load(),
		CorruptionsFound: s.scrub.corruptions.Load(),
		RecordsSalvaged:  s.scrub.salvagedRecords.Load(),
		RecordsLost:      s.scrub.lostRecords.Load(),
	}
	if e, ok := s.scrub.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}

// startScrubber launches the background scrub loop: one segment per
// tick keeps the I/O and CPU cost paced instead of bursty.
func (s *Store) startScrubber(interval time.Duration) {
	s.scrub.loop.start(interval, &s.closed, func() { s.scrubPass(false) })
}

// Scrub runs one synchronous full pass: every sealed segment is
// CRC-walked and any quarantined segment gets a salvage attempt.
// Corruption is not an error (detection and quarantine are the
// scrubber's job); I/O failures during walks or salvage are.
func (s *Store) Scrub() error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if s.closed.Load() {
		return ErrClosed
	}
	return s.scrubPass(true)
}

// scrubPass verifies the next sealed segment (or, with all, every one)
// and retries salvage of anything quarantined.
func (s *Store) scrubPass(all bool) error {
	s.scrub.runs.Add(1)
	var firstErr error
	record := func(err error) {
		s.scrub.lastErr.Store(err.Error())
		if firstErr == nil {
			firstErr = err
		}
	}

	// Salvage retries first: a segment quarantined on an earlier pass
	// (or whose salvage failed mid-disk-fault) gets another chance as
	// soon as conditions allow.
	for _, seg := range s.quarantinedSegments() {
		if err := s.salvageSegment(seg); err != nil {
			record(err)
		}
		seg.release()
	}

	for _, seg := range s.scrubTargets(all) {
		n, err := s.verifySegment(seg)
		switch {
		case err == nil:
			seg.scrubs.Add(1)
			s.scrub.segmentsVerified.Add(1)
			s.scrub.bytesVerified.Add(uint64(n))
		case errors.Is(err, ErrCorrupt):
			s.scrub.corruptions.Add(1)
			seg.quarantined.Store(true)
			if serr := s.salvageSegment(seg); serr != nil {
				record(serr)
			}
		default:
			record(fmt.Errorf("storage: scrubbing segment %d: %w", seg.id, err))
		}
		seg.release()
	}
	if firstErr == nil {
		s.scrub.lastErr.Store("")
	}
	return firstErr
}

// scrubTargets returns the pinned segments to verify this pass: every
// sealed, non-quarantined, non-empty segment (all), or the next one
// past the round-robin cursor. Caller releases each.
func (s *Store) scrubTargets(all bool) []*segment {
	s.segMu.RLock()
	candidates := make([]*segment, 0, len(s.segments))
	for _, seg := range s.segments {
		if seg == s.active || seg.size == 0 || seg.quarantined.Load() {
			continue
		}
		candidates = append(candidates, seg)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].id < candidates[j].id })
	if !all && len(candidates) > 0 {
		cur := s.scrub.cursor.Load()
		next := candidates[0] // wrap-around default
		for _, seg := range candidates {
			if seg.id > cur {
				next = seg
				break
			}
		}
		candidates = candidates[:0]
		candidates = append(candidates, next)
		s.scrub.cursor.Store(next.id)
	}
	for _, seg := range candidates {
		seg.acquire()
	}
	s.segMu.RUnlock()
	return candidates
}

// quarantinedSegments returns the pinned quarantined segments still
// registered. Caller releases each.
func (s *Store) quarantinedSegments() []*segment {
	s.segMu.RLock()
	var out []*segment
	for _, seg := range s.segments {
		if seg.quarantined.Load() && seg != s.active {
			seg.acquire()
			out = append(out, seg)
		}
	}
	s.segMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// verifySegment CRC-walks one sealed segment end to end, returning the
// bytes covered. The caller holds a pin, so the descriptor cannot
// retire mid-walk.
func (s *Store) verifySegment(seg *segment) (int64, error) {
	return scanRecords(io.NewSectionReader(seg.f, 0, seg.size), func(record, int64, int64) {})
}

// salvageSegment rewrites what it can out of a quarantined segment and
// retires it. The key directory drives the plan: each live entry's
// frame is re-verified at its known offset and intact ones are copied
// through rewritePlan (staged outputs, manifest commit, rename, keydir
// flip, victim retire — the compaction phases); corrupt ones lose
// their keydir entry. Tombstones are rescued by a lenient walk that
// resynchronizes at the next known-live offset past a corrupt region,
// and survive under the same rules compaction uses. On success the
// corrupt file is gone from disk and directory alike; on failure the
// segment stays quarantined for the next pass to retry.
func (s *Store) salvageSegment(seg *segment) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.compactor.wedged.Load() {
		return ErrCompactorWedged
	}
	if s.closed.Load() {
		return ErrClosed
	}
	// Salvage writes staged outputs and a manifest; while the write
	// path is degraded those writes would hit the same failing disk.
	if err := s.writeGate(); err != nil {
		return err
	}
	// Re-check registration under compactMu: an earlier pass (or a
	// concurrent explicit Scrub) may have salvaged it already.
	s.segMu.RLock()
	registered := s.segments[seg.id] == seg
	s.segMu.RUnlock()
	if !registered {
		return nil
	}

	// Live entries pointing into this segment, via one consistent
	// directory sweep.
	type liveRef struct {
		key string
		loc keyLoc
	}
	var live []liveRef
	s.keyMu.RLock()
	for k, loc := range s.keydir {
		if loc.segID == seg.id {
			live = append(live, liveRef{key: k, loc: loc})
		}
	}
	s.keyMu.RUnlock()
	sort.Slice(live, func(i, j int) bool { return live[i].loc.offset < live[j].loc.offset })

	// Verify each live frame in place. Intact ones are salvage
	// candidates; corrupt ones are lost — their keydir entries are
	// removed now, before the segment retires, so a reader can never
	// chase a dangling entry into a missing segment.
	victimIDs := map[uint64]bool{seg.id: true}
	plan := make([]copyPlan, 0, len(live))
	liveOffsets := make([]int64, 0, len(live))
	lost := 0
	frame := make([]byte, 0, 4096)
	for _, lr := range live {
		if int64(cap(frame)) < lr.loc.length {
			frame = make([]byte, lr.loc.length)
		}
		frame = frame[:lr.loc.length]
		_, rerr := seg.f.ReadAt(frame, lr.loc.offset)
		var derr error
		if rerr == nil {
			_, derr = decodeFramedValue(frame, lr.key)
		}
		if rerr != nil || derr != nil {
			s.keyMu.Lock()
			if cur, ok := s.keydir[lr.key]; ok && cur.segID == seg.id && cur.offset == lr.loc.offset {
				delete(s.keydir, lr.key)
				lost++
			}
			s.keyMu.Unlock()
			continue
		}
		liveOffsets = append(liveOffsets, lr.loc.offset)
		plan = append(plan, copyPlan{key: lr.key, src: victimRec{
			seg: seg, off: lr.loc.offset, length: lr.loc.length, valLen: lr.loc.valLen,
		}})
	}

	// Tombstone rescue: records between live frames may include
	// tombstones that still suppress older versions in earlier-ordered
	// segments; dropping them would resurrect deleted keys at the next
	// replay. Walk leniently, resynchronizing at the next verified live
	// offset after a corrupt region, and keep tombstones under the
	// compaction survival rules.
	minSurvivor := s.minSurvivingOrder(victimIDs)
	for _, ts := range s.rescueTombstones(seg, liveOffsets) {
		if s.Has(ts.key) {
			continue // a later put made it moot
		}
		if minSurvivor == nil || !orderBefore(minSurvivor, seg) {
			continue // nothing older survives for it to suppress
		}
		plan = append(plan, copyPlan{key: ts.key, src: victimRec{
			seg: seg, off: ts.off, length: ts.length, tombstone: true,
		}})
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].src.off < plan[j].src.off })

	if err := s.rewritePlan([]*segment{seg}, victimIDs, plan, seg.rank); err != nil {
		return fmt.Errorf("storage: salvaging segment %d: %w", seg.id, err)
	}
	salvaged := 0
	for _, p := range plan {
		if !p.src.tombstone {
			salvaged++
		}
	}
	s.scrub.salvagedRecords.Add(uint64(salvaged))
	s.scrub.lostRecords.Add(uint64(lost))
	return nil
}

// rescuedTombstone is one tombstone frame recovered from a quarantined
// segment.
type rescuedTombstone struct {
	key    string
	off    int64
	length int64
}

// rescueTombstones walks seg leniently: frames decode sequentially
// until corruption, then the walk resynchronizes at the next verified
// live-record offset past the damage (frames between are
// unrecoverable — without a trustworthy length there is no safe way to
// find the next frame boundary). Later duplicates win, as in replay.
// liveOffsets is ascending.
func (s *Store) rescueTombstones(seg *segment, liveOffsets []int64) []rescuedTombstone {
	lastByKey := make(map[string]rescuedTombstone)
	for base := int64(0); base < seg.size; {
		stop, err := scanRecords(io.NewSectionReader(seg.f, base, seg.size-base), func(rec record, off, length int64) {
			if !rec.tombstone {
				// A later put in the same segment supersedes a rescued
				// tombstone, exactly as replay order would.
				delete(lastByKey, string(rec.key))
				return
			}
			key := string(rec.key)
			lastByKey[key] = rescuedTombstone{key: key, off: base + off, length: length}
		})
		if err == nil {
			break
		}
		// Resync past the corruption at the next live offset.
		next := sort.Search(len(liveOffsets), func(i int) bool { return liveOffsets[i] > base+stop })
		if next == len(liveOffsets) {
			break
		}
		base = liveOffsets[next]
	}
	out := make([]rescuedTombstone, 0, len(lastByKey))
	for _, ts := range lastByKey {
		out = append(out, ts)
	}
	return out
}
