package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Write-path health. A runtime I/O failure (EIO, ENOSPC, a torn
// write, a failed fsync) must not corrupt the store or take reads
// down: the failing commit poisons the active segment, mutations start
// failing fast with ErrWriteWedged, and reads keep serving from the
// intact sealed prefix. Recovery — a background probe or an explicit
// TryRecoverWrites — rotates to a fresh segment and seals the poisoned
// one at its durable boundary, salvaging any acknowledged-but-unsynced
// tail first. The one thing recovery never does is re-fsync a file
// whose fsync failed: after a failed fsync the kernel may mark the
// still-unwritten dirty pages clean, so a retried fsync can return
// success for bytes that never reached the platter (the "fsyncgate"
// failure that silently corrupted PostgreSQL installs). Durability for
// those bytes is only ever re-established by writing them to a fresh
// segment and fsyncing that.

// HealthState is the store's write-path condition.
type HealthState uint32

const (
	// HealthHealthy: mutations and reads both serve.
	HealthHealthy HealthState = iota
	// HealthReadOnly: a write-path I/O fault degraded the store; reads
	// serve, mutations fail with ErrWriteWedged, recovery may restore
	// HealthHealthy once the fault clears.
	HealthReadOnly
	// HealthWedged: recovery itself failed in a way that leaves the
	// on-disk bytes unreconciled with memory (e.g. the poisoned tail
	// could not be trimmed); mutations stay down until the store is
	// reopened.
	HealthWedged
)

// String names the state for health endpoints.
func (h HealthState) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthReadOnly:
		return "readOnly"
	case HealthWedged:
		return "wedged"
	}
	return "unknown"
}

// ErrWriteWedged is returned by mutations while the write path is
// degraded (HealthReadOnly or HealthWedged). Reads are unaffected.
// Callers can surface it as a retryable "storage unavailable"
// condition: a background probe (Options.WriteProbeInterval) or an
// explicit TryRecoverWrites restores service once the fault clears.
var ErrWriteWedged = errors.New("storage: write path unavailable")

// writeHealth is the store's write-path health state.
type writeHealth struct {
	state   atomic.Uint32
	lastErr atomic.Value // string
	// degradations counts healthy→readOnly transitions; recoveries
	// counts successful returns to healthy.
	degradations atomic.Uint64
	recoveries   atomic.Uint64
	// salvagedRecords counts acknowledged records recovery re-homed
	// from a poisoned tail into a fresh segment.
	salvagedRecords atomic.Uint64

	probe bgLoop
}

// Health returns the store's current write-path state. Reads serve in
// every state; mutations only in HealthHealthy.
func (s *Store) Health() HealthState {
	return HealthState(s.whealth.state.Load())
}

// LastWriteError returns the error message that degraded the write
// path, or "" when it has never degraded.
func (s *Store) LastWriteError() string {
	if msg, ok := s.whealth.lastErr.Load().(string); ok {
		return msg
	}
	return ""
}

// writeGate rejects mutations while the write path is degraded.
func (s *Store) writeGate() error {
	if HealthState(s.whealth.state.Load()) == HealthHealthy {
		return nil
	}
	return s.wedgedErr()
}

// wedgedErr builds the mutation-rejection error, carrying the original
// fault for diagnosis while staying errors.Is-matchable.
func (s *Store) wedgedErr() error {
	if msg := s.LastWriteError(); msg != "" {
		return fmt.Errorf("%w (last error: %s)", ErrWriteWedged, msg)
	}
	return ErrWriteWedged
}

// degradeWrites poisons the active segment and moves the store to
// read-only after a write-path I/O failure. Caller holds the commit
// token. Idempotent; never downgrades an existing wedge.
func (s *Store) degradeWrites(err error) {
	if s.active != nil {
		s.active.poisoned.Store(true)
	}
	s.whealth.lastErr.Store(err.Error())
	if s.whealth.state.CompareAndSwap(uint32(HealthHealthy), uint32(HealthReadOnly)) {
		s.whealth.degradations.Add(1)
	}
}

// wedgeWrites marks the store permanently degraded for this process's
// lifetime: recovery failed in a way that leaves file bytes and memory
// state unreconciled, so only a fresh Open (which replays the log) may
// resume mutations.
func (s *Store) wedgeWrites(err error) {
	s.whealth.lastErr.Store(err.Error())
	s.whealth.state.Store(uint32(HealthWedged))
}

// TryRecoverWrites attempts to restore a read-only store to healthy:
// it rotates to a fresh segment, salvages the poisoned predecessor's
// acknowledged-but-unsynced tail into it, and seals the predecessor at
// its durable boundary. Returns nil when the store is healthy
// afterward; a non-nil error leaves it degraded (still read-only when
// the fault persists — e.g. ENOSPC during the rotation — or wedged if
// reconciliation itself failed). Safe to call at any time; the
// background probe (Options.WriteProbeInterval) calls it periodically,
// tests and operators call it directly.
func (s *Store) TryRecoverWrites() error {
	if s.closed.Load() {
		return ErrClosed
	}
	// compactMu first (same order as Compact) so no compaction pass can
	// scan or truncate segments this recovery is reshaping.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.commits.Lock()
	defer s.commits.Unlock()
	return s.recoverWritesLocked()
}

// recoverWritesLocked does the work of TryRecoverWrites. Caller holds
// compactMu and the commit token.
func (s *Store) recoverWritesLocked() error {
	if s.closed.Load() {
		return ErrClosed
	}
	switch HealthState(s.whealth.state.Load()) {
	case HealthHealthy:
		return nil
	case HealthWedged:
		return s.wedgedErr()
	}
	old := s.active

	// 1. Fresh segment first. Failure (the fault persists — ENOSPC on
	// create, EIO on the dirent sync) keeps the store read-only; the
	// probe retries later. The poisoned predecessor is untouched, so
	// nothing is half-done.
	if err := s.newActiveSegment(); err != nil {
		return err
	}

	// 2. Salvage the acknowledged-but-unsynced tail. Without
	// SyncEveryPut, records in (syncedSize, size] were acknowledged and
	// applied at write time; trimming them would lose acknowledged
	// writes. Copy their frames verbatim into the fresh segment, fsync
	// it, and repoint the key directory — the fresh-segment write is
	// also what restores durability after a failed fsync. Under
	// SyncEveryPut nothing past syncedSize was ever acknowledged or
	// applied, so there is nothing to salvage.
	if !s.opts.SyncEveryPut && old.size > old.syncedSize {
		if err := s.salvageTail(old); err != nil {
			// The fresh segment may hold a partial copy; poison it and
			// stay read-only. Its unreferenced bytes are harmless on
			// replay: identical frames, superseding identical records.
			s.degradeWrites(err)
			return err
		}
	}

	// 3. Seal the predecessor at its durable boundary. Everything
	// beyond syncedSize is now either salvaged (re-homed above) or was
	// never acknowledged; trimming reconciles the file with the key
	// directory. A failed trim wedges: the file would replay bytes this
	// process promised were gone.
	boundary := old.syncedSize
	if f := osFile(old.f); f != nil {
		if err := f.Truncate(boundary); err != nil {
			err = fmt.Errorf("storage: trimming poisoned segment: %w", err)
			s.wedgeWrites(err)
			return err
		}
	}
	s.segMu.Lock()
	old.size = boundary
	s.segMu.Unlock()
	if !old.syncFailed.Load() {
		// The trim is metadata-only over an already-durable prefix, but
		// fsync it so a crash cannot resurrect trimmed bytes as a torn
		// tail in what is no longer the newest segment. Skipped
		// entirely for a file whose fsync already failed (see the
		// fsyncgate note atop this file): its prefix up to syncedSize
		// was durably synced before the failure, and retrying the fsync
		// could silently lie.
		if err := old.f.Sync(); err != nil {
			old.syncFailed.Store(true)
			s.degradeWrites(fmt.Errorf("storage: sealing poisoned segment: %w", err))
			return err
		}
	}
	old.poisoned.Store(false)
	s.whealth.state.Store(uint32(HealthHealthy))
	s.whealth.recoveries.Add(1)
	return nil
}

// salvageTail copies the poisoned predecessor's acknowledged frames —
// the (syncedSize, size] window — verbatim into the fresh active
// segment, fsyncs them, and repoints the key directory. Caller holds
// the commit token; the window is bounded by MaxSegmentBytes.
func (s *Store) salvageTail(old *segment) error {
	oldSynced := old.syncedSize
	n := old.size - oldSynced
	buf := make([]byte, n)
	if _, err := old.f.ReadAt(buf, oldSynced); err != nil {
		return fmt.Errorf("storage: reading poisoned tail: %w", err)
	}
	act := s.active
	base := act.size
	if _, err := act.f.WriteAt(buf, base); err != nil {
		return fmt.Errorf("storage: salvaging poisoned tail: %w", err)
	}
	act.size = base + n
	if err := s.syncActive(); err != nil {
		act.syncFailed.Store(true)
		return fmt.Errorf("storage: syncing salvaged tail: %w", err)
	}
	act.syncedSize = act.size

	// Repoint live entries frame by frame. Mutations have been gated
	// since the fault, so an entry into the old tail is exactly at the
	// offset the frame was applied from; anything else in the window is
	// a within-batch superseded copy or a tombstone, dead on arrival in
	// the new segment.
	salvaged := uint64(0)
	s.keyMu.Lock()
	_, err := scanRecords(bytes.NewReader(buf), func(rec record, off, length int64) {
		loc, ok := s.keydir[string(rec.key)]
		if !ok || rec.tombstone || loc.segID != old.id || loc.offset != oldSynced+off {
			s.addDead(act.id, length)
			return
		}
		s.keydir[string(rec.key)] = keyLoc{
			segID:  act.id,
			offset: base + off,
			length: length,
			valLen: len(rec.value),
		}
		salvaged++
	})
	s.keyMu.Unlock()
	if err != nil {
		return fmt.Errorf("storage: walking poisoned tail: %w", err)
	}
	s.whealth.salvagedRecords.Add(salvaged)
	return nil
}

// startWriteProbe launches the background recovery probe: every
// interval, a read-only store attempts TryRecoverWrites, so mutations
// resume automatically once a transient fault (disk space freed, I/O
// error cleared) goes away.
func (s *Store) startWriteProbe(interval time.Duration) {
	s.whealth.probe.start(interval, &s.closed, func() {
		if s.Health() == HealthReadOnly {
			s.TryRecoverWrites() // failure: stay degraded, retry next tick
		}
	})
}

// HealthStats is the write-path + scrub health snapshot surfaced by
// health endpoints.
type HealthStats struct {
	// State is the write-path condition: "healthy", "readOnly" or
	// "wedged". Reads serve in every state.
	State string
	// LastWriteError is the fault that degraded the write path, if any.
	LastWriteError string
	// Degradations counts healthy→readOnly transitions; Recoveries
	// counts successful returns to healthy; SalvagedRecords counts
	// acknowledged records recovery re-homed from poisoned tails.
	Degradations    uint64
	Recoveries      uint64
	SalvagedRecords uint64
	// Scrub reports background segment-scrub activity.
	Scrub ScrubStats
	// QuarantinedSegments is the number of registered segments the
	// scrubber has quarantined and not yet salvaged away.
	QuarantinedSegments int
}

// HealthStats returns a snapshot of the store's fault-tolerance state.
func (s *Store) HealthStats() HealthStats {
	hs := HealthStats{
		State:           s.Health().String(),
		LastWriteError:  s.LastWriteError(),
		Degradations:    s.whealth.degradations.Load(),
		Recoveries:      s.whealth.recoveries.Load(),
		SalvagedRecords: s.whealth.salvagedRecords.Load(),
		Scrub:           s.ScrubStats(),
	}
	s.segMu.RLock()
	for _, seg := range s.segments {
		if seg.quarantined.Load() {
			hs.QuarantinedSegments++
		}
	}
	s.segMu.RUnlock()
	return hs
}
