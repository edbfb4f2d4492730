package storage

import (
	"sync/atomic"
	"time"
)

// Background incremental compactor. A single goroutine wakes every
// CompactInterval, selects sealed segments whose garbage ratio reached
// CompactGarbageRatio, and rewrites them through compactSegments —
// reads and writes proceed throughout (see compact.go). Explicit
// Compact calls and the background loop serialize on compactMu.

// compactorState tracks the background goroutine's lifecycle.
type compactorState struct {
	loop bgLoop
	// wedged refuses further compactions after a post-commit failure
	// (see ErrCompactorWedged); cleared only by reopening the store.
	wedged atomic.Bool
	// lastErr is the most recent background pass failure, for
	// observability (CompactionStats.LastError).
	lastErr atomic.Value // string
}

// compactionCounters accumulate across the store's lifetime.
type compactionCounters struct {
	runs      atomic.Uint64
	segments  atomic.Uint64
	reclaimed atomic.Int64
}

// CompactionStats reports compaction activity for health endpoints and
// tools.
type CompactionStats struct {
	// Runs counts completed incremental passes that rewrote at least
	// one segment.
	Runs uint64
	// SegmentsCompacted counts victim segments rewritten.
	SegmentsCompacted uint64
	// BytesReclaimed is the net on-disk shrink across all passes.
	BytesReclaimed int64
	// Running reports whether the background compactor goroutine is
	// alive.
	Running bool
	// Wedged reports a post-commit failure froze compaction until the
	// store is reopened.
	Wedged bool
	// LastError is the most recent background pass failure, if any.
	LastError string
}

// CompactionStats returns a snapshot of compaction activity.
func (s *Store) CompactionStats() CompactionStats {
	st := CompactionStats{
		Runs:              s.cstats.runs.Load(),
		SegmentsCompacted: s.cstats.segments.Load(),
		BytesReclaimed:    s.cstats.reclaimed.Load(),
		Running:           s.compactor.loop.running(),
		Wedged:            s.compactor.wedged.Load(),
	}
	if e, ok := s.compactor.lastErr.Load().(string); ok {
		st.LastError = e
	}
	return st
}

// startCompactor launches the background loop: one compactOnce pass
// per interval. Called from Open.
func (s *Store) startCompactor(interval time.Duration, ratio float64) {
	s.compactor.loop.start(interval, &s.closed, func() {
		if _, err := s.compactOnce(ratio); err != nil {
			s.compactor.lastErr.Store(err.Error())
		} else {
			s.compactor.lastErr.Store("")
		}
	})
}

// compactOnce runs one victim-selection + compaction pass, returning
// how many segments were rewritten. Exported behavior lives behind
// Compact and the background loop; tests drive this directly.
func (s *Store) compactOnce(ratio float64) (int, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	// Skipping while the write path is degraded is load-bearing, not
	// just polite: compaction output writes would hit the same failing
	// disk, and rotation would fsync the poisoned active segment.
	if s.compactor.wedged.Load() || s.closed.Load() || s.Health() != HealthHealthy {
		return 0, nil
	}
	victims := s.selectVictims(ratio)
	if len(victims) == 0 {
		return 0, nil
	}
	if err := s.compactSegments(victims); err != nil {
		return 0, err
	}
	return len(victims), nil
}

// selectVictims picks the sealed segments whose garbage ratio reached
// the threshold. The active segment is never a victim — it is still
// being appended to.
func (s *Store) selectVictims(ratio float64) []*segment {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	var victims []*segment
	for _, seg := range s.segments {
		if seg == s.active || seg.size == 0 || seg.quarantined.Load() {
			// A quarantined segment's scan would fail on the corruption;
			// scrub salvage retires it through its own keydir-driven
			// plan instead.
			continue
		}
		if seg.garbageRatio() >= ratio {
			victims = append(victims, seg)
		}
	}
	return victims
}
