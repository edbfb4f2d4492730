package storage

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
)

// Parallel segment replay. Open scans every segment file concurrently:
// each worker folds its segment into a per-segment map holding the last
// record seen for each key (records within one file are already in
// offset order). The per-segment maps then merge serially in ascending
// (rank, segID) order — rank equals segID except for compaction
// outputs, which inherit their victims' rank from the manifest (see
// manifest.go) — so the per-key winner is exactly the record a serial,
// record-by-record replay of the logical log would pick. Dead bytes
// fall out of the same invariant, now per segment: bytes superseded
// within a file are its size minus its surviving entries; bytes
// superseded across files are charged to the file holding the loser.

// segEntry is the last record for one key within one segment.
type segEntry struct {
	off       int64
	length    int64
	valLen    int
	tombstone bool
}

// segScan is one worker's result for one segment.
type segScan struct {
	entries map[string]segEntry
	size    int64 // post-repair byte size == sum of framed record lengths
	err     error
}

// loadSegments rebuilds the key directory from the segment files,
// scanning up to GOMAXPROCS files in parallel. Only Open calls
// this, so shard maps are written without locks. The newest segment in
// merge order — always the previous process's active segment, since
// compaction outputs rank below it — gets torn-tail repair.
func (s *Store) loadSegments(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	// Merge order: ascending (rank, id). ids arrive id-sorted; a stable
	// re-sort by rank keeps the id tiebreak.
	sort.SliceStable(ids, func(i, j int) bool { return s.man.rankOf(ids[i]) < s.man.rankOf(ids[j]) })

	scans := make([]segScan, len(ids))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ids) {
		workers = len(ids)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				scans[i] = scanOneSegment(segmentPath(s.dir, ids[i]), i == len(ids)-1)
			}
		}()
	}
	for i := range ids {
		work <- i
	}
	close(work)
	wg.Wait()

	// Merge in (rank, id) order; within a segment the map holds only
	// the newest record per key, so assignment order equals log order
	// and later segments override earlier ones.
	for i, id := range ids {
		sc := &scans[i]
		if sc.err != nil {
			return sc.err
		}
		path := segmentPath(s.dir, id)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("storage: opening segment: %w", err)
		}
		var sf segfile = f
		if i == len(ids)-1 && s.opts.FaultInjection != nil {
			// Only the recovered active segment is ever written again;
			// sealed segments stay unwrapped (read-only).
			sf = s.opts.FaultInjection.wrapFile(f)
		}
		// Replayed bytes are as durable as this disk gets: they were
		// read back from it, so the durable boundary is the full size.
		seg := &segment{id: id, path: path, f: sf, size: sc.size, rank: s.man.rankOf(id)}
		seg.syncedSize.Store(sc.size)
		s.segments[id] = seg
		if i == len(ids)-1 {
			s.active = seg
		}
		// Records superseded within this file never reached the
		// per-segment map; they are this file's intra-segment garbage.
		intra := sc.size
		for _, e := range sc.entries {
			intra -= e.length
		}
		seg.dead.Add(intra)
		for k, e := range sc.entries {
			sh := s.shardFor(k)
			if prev, ok := sh.m[k]; ok {
				s.segments[prev.segID].dead.Add(prev.length)
			}
			if e.tombstone {
				delete(sh.m, k)
				seg.dead.Add(e.length)
				continue
			}
			sh.m[k] = keyLoc{segID: id, offset: e.off, length: e.length, valLen: e.valLen}
		}
	}
	return nil
}

// scanOneSegment folds one segment file into its per-key last-record
// map. repairTail truncates a torn final record (newest segment only).
func scanOneSegment(path string, repairTail bool) segScan {
	entries := make(map[string]segEntry)
	size, err := scanSegment(path, repairTail, func(rec record, off, length int64) {
		entries[string(rec.key)] = segEntry{
			off:       off,
			length:    length,
			valLen:    len(rec.value),
			tombstone: rec.tombstone,
		}
	})
	return segScan{entries: entries, size: size, err: err}
}
