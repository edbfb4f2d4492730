package storage

import (
	"fmt"
	"os"
	"sort"
)

// loadSegments rebuilds the key directory by replaying the segment files
// one after another in ascending (rank, id) order — rank equals id
// except for compaction outputs, which inherit their victims' rank from
// the manifest (see manifest.go) — applying each record as it decodes.
// A record that supersedes another charges the loser's bytes to the
// segment holding it; a tombstone's own bytes are charged to its
// segment. Only Open calls this, before the store is shared, so the
// directory is written without locks. The last segment in this order —
// always the previous process's active segment, since compaction
// outputs rank below it — gets torn-tail repair. Each segment is
// registered before it is scanned, so on error Open finds every
// descriptor this opened in s.segments.
func (s *Store) loadSegments(ids []uint64) error {
	// ids arrive id-sorted; a stable re-sort by rank keeps the id
	// tiebreak.
	sort.SliceStable(ids, func(i, j int) bool { return s.man.rankOf(ids[i]) < s.man.rankOf(ids[j]) })
	for i, id := range ids {
		last := i == len(ids)-1
		path := segmentPath(s.dir, id)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("storage: opening segment: %w", err)
		}
		var sf segfile = f
		if last && s.opts.FaultInjection != nil {
			// Only the recovered active segment is ever written again;
			// sealed segments stay unwrapped (read-only).
			sf = s.opts.FaultInjection.wrapFile(f)
		}
		seg := &segment{id: id, path: path, f: sf, rank: s.man.rankOf(id)}
		s.segments[id] = seg
		size, err := scanSegment(path, last, func(rec record, off, length int64) {
			if prev, ok := s.keydir[string(rec.key)]; ok {
				s.segments[prev.segID].dead.Add(prev.length)
			}
			if rec.tombstone {
				delete(s.keydir, string(rec.key))
				seg.dead.Add(length)
				return
			}
			s.keydir[string(rec.key)] = keyLoc{segID: id, offset: off, length: length, valLen: len(rec.value)}
		})
		if err != nil {
			return err
		}
		// Replayed bytes are as durable as this disk gets: they were
		// read back from it, so the durable boundary is the full size.
		seg.size = size
		seg.syncedSize = size
		if last {
			s.active = seg
		}
	}
	return nil
}
