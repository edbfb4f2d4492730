package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Write-path health. A runtime I/O failure (EIO, ENOSPC, a torn write,
// a failed fsync) must not corrupt the store or take reads down: the
// failing write degrades the store, mutations fail fast with
// ErrWriteWedged, and the log's acknowledged prefix stays as it was.
// Recovery — the background probe, TryRecoverWrites, or a successful
// checkpoint — writes a fresh log holding that prefix and fsyncs it. It
// never re-fsyncs the file whose fsync failed: after a failed fsync the
// kernel may mark the unwritten dirty pages clean, so a retried fsync
// can report success for bytes that never reached the disk (the
// "fsyncgate" failure that corrupted PostgreSQL installations).

// HealthState is the store's write-path condition.
type HealthState uint32

const (
	// HealthHealthy: mutations and reads both serve.
	HealthHealthy HealthState = iota
	// HealthReadOnly: an I/O fault degraded the write path; mutations
	// fail with ErrWriteWedged until recovery succeeds.
	HealthReadOnly
)

// String names the state for health endpoints.
func (h HealthState) String() string {
	if h == HealthHealthy {
		return "healthy"
	}
	return "readOnly"
}

// ErrWriteWedged is returned by mutations while the write path is
// degraded: a retryable "storage unavailable".
var ErrWriteWedged = errors.New("storage: write path unavailable")

// writeHealth is the store's write-path health state. salvagedRecords
// counts acknowledged records recovery rewrote that no fsync covered.
type writeHealth struct {
	state                                     atomic.Uint32
	lastErr                                   atomic.Value // string
	degradations, recoveries, salvagedRecords atomic.Uint64
	probe                                     bgLoop
}

// Health returns the store's current write-path state.
func (s *Store) Health() HealthState {
	return HealthState(s.whealth.state.Load())
}

// writeGate rejects mutations while the write path is degraded, with an
// error that carries the original fault.
func (s *Store) writeGate() error {
	if s.Health() == HealthHealthy {
		return nil
	}
	return s.wedgedErr()
}

func (s *Store) wedgedErr() error {
	if msg, _ := s.whealth.lastErr.Load().(string); msg != "" {
		return fmt.Errorf("%w (last error: %s)", ErrWriteWedged, msg)
	}
	return ErrWriteWedged
}

// degradeWrites moves the store to read-only after a write-path fault.
// Caller holds mu.
func (s *Store) degradeWrites(err error) {
	s.whealth.lastErr.Store(err.Error())
	if s.whealth.state.CompareAndSwap(uint32(HealthHealthy), uint32(HealthReadOnly)) {
		s.whealth.degradations.Add(1)
	}
}

// restoreWrites returns a degraded store to healthy once a fresh log is
// in place. Caller holds mu.
func (s *Store) restoreWrites() {
	if s.whealth.state.CompareAndSwap(uint32(HealthReadOnly), uint32(HealthHealthy)) {
		s.whealth.recoveries.Add(1)
	}
}

// TryRecoverWrites restores a degraded store: it writes the log's
// acknowledged records to a fresh file, fsyncs it and renames it over
// the log. It returns nil when the store is healthy afterwards; a
// persisting fault leaves it degraded for the next attempt.
func (s *Store) TryRecoverWrites() error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.Health() == HealthHealthy {
		return nil
	}
	content := make([]byte, s.logSize)
	if s.logSize > 0 {
		if _, err := s.log.ReadAt(content, 0); err != nil {
			return fmt.Errorf("storage: reading the log to recover it: %w", err)
		}
	}
	synced := s.logSynced
	if err := s.startLog(content); err != nil {
		return err
	}
	_, n, _, _ := scanFile(bytes.NewReader(content[synced:]), func(record, int64, int64) error { return nil })
	s.whealth.salvagedRecords.Add(uint64(n))
	return nil
}

// startWriteProbe runs TryRecoverWrites every interval while the store
// is degraded, so mutations resume once a transient fault clears.
func (s *Store) startWriteProbe(interval time.Duration) {
	s.whealth.probe.start(interval, &s.closed, func() {
		if s.Health() != HealthHealthy {
			s.TryRecoverWrites() // failure: stay degraded, retry next tick
		}
	})
}

// HealthStats is the write-path and scrub health surfaced by health
// endpoints. State is "healthy" or "readOnly"; reads serve in both.
type HealthStats struct {
	State                                     string
	LastWriteError                            string
	Degradations, Recoveries, SalvagedRecords uint64
	Scrub                                     ScrubStats
}

// HealthStats returns a snapshot of the store's fault-tolerance state.
func (s *Store) HealthStats() HealthStats {
	hs := HealthStats{
		State:           s.Health().String(),
		Degradations:    s.whealth.degradations.Load(),
		Recoveries:      s.whealth.recoveries.Load(),
		SalvagedRecords: s.whealth.salvagedRecords.Load(),
		Scrub:           s.ScrubStats(),
	}
	hs.LastWriteError, _ = s.whealth.lastErr.Load().(string)
	return hs
}
