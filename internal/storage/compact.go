package storage

import (
	"errors"
	"fmt"
	"os"
	"sort"
)

// Incremental compaction. compactSegments rewrites the live records of
// a set of sealed victim segments into fresh output segments while
// reads and writes keep flowing: the victims are immutable, so the scan
// and copy phases hold no locks at all; the key directory is flipped
// afterward with a per-key compare-and-swap, so a record a writer
// superseded mid-copy simply stays garbage in the output. Crash safety
// comes from the manifest protocol (manifest.go): outputs are staged as
// *.seg.tmp, fsynced, committed by an atomic manifest write that also
// sentences the victims, then renamed into place — a crash at any step
// recovers to exactly the pre- or post-compaction segment set.
//
// Phases, with the on-crash outcome of each:
//
//  1. scan victims, plan copies        — nothing on disk, pre-state
//  2. write + fsync staged outputs     — orphaned *.seg.tmp, deleted at
//     Open, pre-state
//  3. commit manifest                  — THE commit point: before the
//     rename lands, pre-state; after, post-state
//  4. rename outputs into place        — rolled forward at Open
//  5. register outputs, flip keydir    — in-memory only
//  6. retire victims (unlink at drain) — Drop list unlinks at Open
//
// ErrCompactorWedged marks a store whose compaction failed after the
// manifest committed (phase 4+): the in-memory segment set no longer
// matches the manifest's promise, so further compactions are refused
// until the store is reopened (Open reconciles the directory).
var ErrCompactorWedged = errors.New("storage: compactor wedged by a post-commit failure; reopen to recover")

// victimRec is the newest record for one key within the victim set.
type victimRec struct {
	seg       *segment
	off       int64
	length    int64
	valLen    int
	tombstone bool
}

// copyPlan is one record scheduled for rewriting, and where it landed.
type copyPlan struct {
	key    string
	src    victimRec
	out    *segment
	newOff int64
}

// segOrder is the replay merge order: ascending (rank, id).
func segOrder(a, b *segment) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.id < b.id
}

// compactSegments runs one incremental compaction over victims. Caller
// holds compactMu; victims must be sealed (never the active segment).
func (s *Store) compactSegments(victims []*segment) error {
	if len(victims) == 0 {
		return nil
	}
	sort.Slice(victims, func(i, j int) bool { return segOrder(victims[i], victims[j]) })
	maxRank := uint64(0)
	victimIDs := make(map[uint64]bool, len(victims))
	for _, v := range victims {
		if v.rank > maxRank {
			maxRank = v.rank
		}
		victimIDs[v.id] = true
	}

	// Pin the victims so concurrent Close cannot yank descriptors.
	s.segMu.RLock()
	for _, v := range victims {
		v.acquire()
	}
	s.segMu.RUnlock()
	defer func() {
		for _, v := range victims {
			v.release()
		}
	}()

	// Phase 1a: one sequential sweep per victim, in merge order, keeping
	// the newest record per key within the set.
	last := make(map[string]victimRec)
	for _, v := range victims {
		_, err := scanSegment(v.path, false, func(rec record, off, length int64) {
			last[string(rec.key)] = victimRec{
				seg: v, off: off, length: length,
				valLen: len(rec.value), tombstone: rec.tombstone,
			}
		})
		if err != nil {
			return fmt.Errorf("storage: compacting segment %d: %w", v.id, err)
		}
	}

	// Phase 1b: decide what survives. A value record survives if the
	// key directory still points exactly at it. A tombstone survives
	// only while some non-victim segment ordered before it could hold
	// an older version of the key that the tombstone must keep dead —
	// and only if no later put made the tombstone moot.
	minSurvivor := s.minSurvivingOrder(victimIDs)
	plan := make([]copyPlan, 0, len(last))
	for key, vr := range last {
		s.keyMu.RLock()
		loc, ok := s.keydir[key]
		s.keyMu.RUnlock()
		if vr.tombstone {
			if ok {
				continue // a later put superseded the tombstone
			}
			if minSurvivor == nil || !orderBefore(minSurvivor, vr.seg) {
				continue // nothing older survives for it to suppress
			}
			plan = append(plan, copyPlan{key: key, src: vr})
			continue
		}
		if ok && loc.segID == vr.seg.id && loc.offset == vr.off {
			plan = append(plan, copyPlan{key: key, src: vr})
		}
	}
	sort.Slice(plan, func(i, j int) bool {
		a, b := plan[i].src, plan[j].src
		if a.seg != b.seg {
			return segOrder(a.seg, b.seg)
		}
		return a.off < b.off
	})

	return s.rewritePlan(victims, victimIDs, plan, maxRank)
}

// rewritePlan runs phases 2–6 of a segment rewrite: stage outputs,
// commit the manifest, rename, publish, flip the key directory, retire
// the victims. Shared by compaction (plan = surviving records from a
// full victim scan) and scrub salvage (plan = keydir-verified records
// of a corrupt segment). Caller holds compactMu and has pinned the
// victims; plan must be sorted in (seg order, offset) order.
func (s *Store) rewritePlan(victims []*segment, victimIDs map[uint64]bool, plan []copyPlan, maxRank uint64) error {
	// Phase 2: write the staged outputs.
	outputs, err := s.writeCompactionOutputs(plan, maxRank)
	if err != nil {
		s.discardOutputs(outputs)
		return err
	}

	// Phase 3: the commit point. The manifest ranks the outputs into
	// the victims' replay position and sentences the victims. A failure
	// after the manifest rename may still be durable, so the outputs
	// must NOT be discarded — deleting them while a committed manifest
	// sentences the victims would lose data at the next Open. Wedge
	// instead; Open reconciles either way.
	man := s.stageManifest(outputs, victims, maxRank)
	committed, err := s.writeManifest(man)
	if err != nil {
		if committed {
			s.compactor.wedged.Store(true)
			return err
		}
		s.discardOutputs(outputs)
		return err
	}
	s.man = man

	// Phase 4: move outputs to their real names. Failure past the
	// commit point wedges the compactor; Open reconciles from the
	// manifest (rolling half-renamed outputs forward).
	for _, o := range outputs {
		if err := s.fs.rename(segmentTmpPath(s.dir, o.id), o.path); err != nil {
			s.compactor.wedged.Store(true)
			return fmt.Errorf("storage: placing compaction output: %w", err)
		}
	}
	if err := s.fs.syncDir(s.dir); err != nil {
		s.compactor.wedged.Store(true)
		return fmt.Errorf("storage: syncing dir after compaction: %w", err)
	}

	// Phase 5: publish the outputs, then flip the key directory. A
	// per-key CAS keeps flips correct against concurrent writers: an
	// entry that moved on is left alone and the copy is charged to the
	// output as garbage.
	s.segMu.Lock()
	if s.closed.Load() {
		s.segMu.Unlock()
		s.compactor.wedged.Store(true)
		// The outputs are durable and committed — the next Open rolls
		// them in — but they will never be registered in this process,
		// so release their descriptors instead of leaking
		// them until exit. No reader can hold a pin: they were never
		// published.
		for _, o := range outputs {
			o.retire(false)
		}
		return ErrClosed
	}
	for _, o := range outputs {
		s.segments[o.id] = o
	}
	s.segMu.Unlock()
	s.flipKeydir(plan)

	// Phase 6: retire the victims; each unlinks once pinned readers
	// drain. reclaimed is the net on-disk shrink.
	var reclaimed int64
	s.segMu.Lock()
	for _, v := range victims {
		delete(s.segments, v.id)
		reclaimed += v.size
		v.removeFn = s.fs.remove
		v.retire(true)
	}
	s.segMu.Unlock()
	for _, o := range outputs {
		reclaimed -= o.size
	}
	s.cstats.runs.Add(1)
	s.cstats.segments.Add(uint64(len(victims)))
	s.cstats.reclaimed.Add(reclaimed)
	return nil
}

// minSurvivingOrder returns the earliest (rank, id) non-victim segment,
// or nil when the victims are a prefix of the whole log (then no older
// segment can resurrect a key and tombstones may drop).
func (s *Store) minSurvivingOrder(victimIDs map[uint64]bool) *segment {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	var min *segment
	for _, seg := range s.segments {
		if victimIDs[seg.id] {
			continue
		}
		if min == nil || segOrder(seg, min) {
			min = seg
		}
	}
	return min
}

// orderBefore reports whether a replays before b.
func orderBefore(a, b *segment) bool { return segOrder(a, b) }

// writeCompactionOutputs streams the planned records into staged
// (*.seg.tmp) output segments, rotating at MaxSegmentBytes, batching
// bytes into chunked writes, and fsyncing every output before
// returning. plan entries are annotated with their new location.
func (s *Store) writeCompactionOutputs(plan []copyPlan, rank uint64) ([]*segment, error) {
	var outputs []*segment
	var out *segment
	chunk := make([]byte, 0, compactChunkBytes)
	var chunkStart int64
	flush := func() error {
		if out == nil || len(chunk) == 0 {
			return nil
		}
		if _, err := out.f.WriteAt(chunk, chunkStart); err != nil {
			return fmt.Errorf("storage: writing compaction output: %w", err)
		}
		chunkStart += int64(len(chunk))
		chunk = chunk[:0]
		return nil
	}
	var raw []byte
	for i := range plan {
		p := &plan[i]
		if out == nil || out.size >= s.opts.MaxSegmentBytes {
			if err := flush(); err != nil {
				return outputs, err
			}
			id := s.nextSegID.Add(1)
			f, err := s.fs.create(segmentTmpPath(s.dir, id))
			if err != nil {
				return outputs, fmt.Errorf("storage: creating compaction output: %w", err)
			}
			out = &segment{id: id, path: segmentPath(s.dir, id), f: f, rank: rank}
			outputs = append(outputs, out)
			chunkStart = 0
		}
		if int64(cap(raw)) < p.src.length {
			raw = make([]byte, p.src.length)
		}
		raw = raw[:p.src.length]
		if _, err := p.src.seg.f.ReadAt(raw, p.src.off); err != nil {
			return outputs, fmt.Errorf("storage: compact reading %q: %w", p.key, err)
		}
		p.out, p.newOff = out, out.size
		chunk = append(chunk, raw...)
		out.size += p.src.length
		if p.src.tombstone {
			// A preserved tombstone is still garbage by the byte
			// accounting: reclaimable as soon as its elders go.
			out.dead.Add(p.src.length)
		}
		if len(chunk) >= compactChunkBytes {
			if err := flush(); err != nil {
				return outputs, err
			}
		}
	}
	if err := flush(); err != nil {
		return outputs, err
	}
	for _, o := range outputs {
		if err := o.f.Sync(); err != nil {
			return outputs, fmt.Errorf("storage: syncing compaction output: %w", err)
		}
		o.syncedSize = o.size
	}
	return outputs, nil
}

// compactChunkBytes bounds one coalesced output write.
const compactChunkBytes = 1 << 20

// stageManifest builds the successor manifest for a compaction: output
// ranks added, victims sentenced, entries for long-gone segments
// pruned.
func (s *Store) stageManifest(outputs, victims []*segment, rank uint64) manifest {
	man := s.man.clone()
	keep := make(map[uint64]bool, len(outputs))
	s.segMu.RLock()
	for id := range s.segments {
		keep[id] = true
	}
	s.segMu.RUnlock()
	for _, v := range victims {
		delete(keep, v.id)
	}
	for _, o := range outputs {
		keep[o.id] = true
	}
	for id := range man.Ranks {
		if !keep[id] {
			delete(man.Ranks, id)
		}
	}
	for _, o := range outputs {
		man.Ranks[o.id] = rank
	}
	// Carry forward sentenced segments whose files still exist: a
	// pinned reader (or a failed unlink) can keep an earlier victim on
	// disk past the next compaction, and dropping it from the list
	// would let a crash replay it as live — resurrecting keys whose
	// tombstones earlier compactions already folded away.
	var drop []uint64
	for _, id := range man.Drop {
		if _, err := os.Stat(segmentPath(s.dir, id)); err == nil {
			drop = append(drop, id)
		}
	}
	for _, v := range victims {
		drop = append(drop, v.id)
	}
	man.Drop = drop
	return man
}

// flipKeydir repoints surviving copies under one hold of the keydir
// lock. Entries a concurrent writer moved past fail the CAS; their
// copies become garbage in the output they landed in.
func (s *Store) flipKeydir(plan []copyPlan) {
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	for i := range plan {
		p := &plan[i]
		if p.src.tombstone || p.out == nil {
			continue
		}
		cur, ok := s.keydir[p.key]
		if ok && cur.segID == p.src.seg.id && cur.offset == p.src.off {
			s.keydir[p.key] = keyLoc{
				segID:  p.out.id,
				offset: p.newOff,
				length: p.src.length,
				valLen: p.src.valLen,
			}
		} else {
			p.out.dead.Add(p.src.length)
		}
	}
}

// discardOutputs best-effort deletes staged outputs after a
// pre-commit failure. When the failure is a simulated crash the
// removes fail too, leaving the orphans for Open to clean — exactly
// what a real crash leaves behind.
func (s *Store) discardOutputs(outputs []*segment) {
	for _, o := range outputs {
		o.f.Close()
		s.fs.remove(segmentTmpPath(s.dir, o.id))
	}
}

// Compact runs one full incremental pass: it seals the active segment,
// then rewrites every sealed segment, reclaiming all superseded records
// and tombstones. Unlike the pre-incremental engine this does not stop
// the world — reads and writes proceed throughout; only the brief
// rotation holds the commit token.
func (s *Store) Compact() error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if s.closed.Load() {
		return ErrClosed
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.compactor.wedged.Load() {
		return ErrCompactorWedged
	}
	// A degraded write path refuses explicit compaction too: rotation
	// would seal (and fsync) the poisoned active segment, and output
	// writes would hit the same failing disk. Recover first.
	if err := s.writeGate(); err != nil {
		return err
	}

	// Seal the active segment (if it holds anything) so its garbage is
	// collectable too.
	s.commits.Lock()
	if s.closed.Load() {
		s.commits.Unlock()
		return ErrClosed
	}
	var rerr error
	if s.active.size > 0 {
		rerr = s.rotate()
		if rerr != nil && !errors.Is(rerr, ErrClosed) {
			// Same contract as a commit-path failure: the active segment
			// is poisoned and mutations wedge until recovery rotates
			// away from it (a failed seal fsync must never be retried).
			s.degradeWrites(rerr)
		}
	}
	s.commits.Unlock()
	if rerr != nil {
		return rerr
	}

	s.segMu.RLock()
	active := s.active
	victims := make([]*segment, 0, len(s.segments)-1)
	for _, seg := range s.segments {
		if seg != active {
			victims = append(victims, seg)
		}
	}
	s.segMu.RUnlock()
	return s.compactSegments(victims)
}

// NeedsCompaction reports whether dead bytes exceed both the configured
// floor and half the live bytes — a pragmatic trigger for tools.
func (s *Store) NeedsCompaction() bool {
	st := s.Stats()
	return st.DeadBytes > s.opts.CompactionFloorBytes && st.DeadBytes > st.LiveBytes/2
}
