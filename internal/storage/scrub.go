package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// Scrub. Checksums are otherwise verified only when a file is read at
// boot, so a bit flip on disk would wait for the next restart to
// surface, and then fail it. The scrubber (Options.ScrubInterval)
// re-verifies both files every tick. Salvage is a fresh checkpoint from
// memory: the bound corpus holds every acknowledged write, so writing
// it out replaces both damaged files without reading them.

// scrubState is the scrubber's lifecycle and counters.
type scrubState struct {
	loop                                       bgLoop
	runs, bytesVerified, corruptions, salvages atomic.Uint64
	lastErr                                    atomic.Value // string
}

// ScrubStats reports scrub activity: completed passes and the bytes
// they verified, passes that found a checksum or framing error, the
// fresh checkpoints written in answer, and the latest I/O or salvage
// failure (a corruption found is not an error: finding it is the job).
type ScrubStats struct {
	Running                                         bool
	Runs, BytesVerified, CorruptionsFound, Salvages uint64
	LastError                                       string
}

// ScrubStats returns a snapshot of scrub activity.
func (s *Store) ScrubStats() ScrubStats {
	st := ScrubStats{
		Running:          s.scrub.loop.running(),
		Runs:             s.scrub.runs.Load(),
		BytesVerified:    s.scrub.bytesVerified.Load(),
		CorruptionsFound: s.scrub.corruptions.Load(),
		Salvages:         s.scrub.salvages.Load(),
	}
	st.LastError, _ = s.scrub.lastErr.Load().(string)
	return st
}

// startScrubber launches the background scrub loop.
func (s *Store) startScrubber(interval time.Duration) {
	s.scrub.loop.start(interval, &s.closed, func() { s.Scrub() })
}

// Scrub verifies the checkpoint and the log's acknowledged prefix. On a
// corruption it writes a fresh checkpoint from the bound corpus; with
// no corpus bound the corruption is only counted, and the error says
// so. The files are read through their own descriptors, outside the
// log mutex, so writes proceed meanwhile.
func (s *Store) Scrub() error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		return ErrClosed
	}
	gen, ckptName, logName, logSize := s.ckpt.gen, s.ckpt.name, s.logName(), s.logSize
	s.mu.Unlock()
	defer s.scrub.runs.Add(1)

	corrupt, err := s.verifyFiles(ckptName, logName, logSize)
	if err == nil && corrupt {
		s.scrub.corruptions.Add(1)
		s.mu.Lock()
		moved := s.ckpt.gen != gen // a checkpoint replaced both files meanwhile
		s.mu.Unlock()
		if !moved {
			if err = s.Checkpoint(); err == nil {
				s.scrub.salvages.Add(1)
			} else {
				err = fmt.Errorf("storage: salvaging after a corruption: %w", err)
			}
		}
	}
	if err != nil {
		s.scrub.lastErr.Store(err.Error())
	}
	return err
}

// verifyFiles reads both files by name and reports whether either
// fails its checksums. A file a checkpoint removed meanwhile reads as
// sound.
func (s *Store) verifyFiles(ckptName, logName string, logSize int64) (corrupt bool, err error) {
	if ckptName != "" {
		f, info, err := openCheckpoint(s.path(ckptName))
		switch {
		case errors.Is(err, os.ErrNotExist):
			return false, nil
		case errors.Is(err, ErrCorrupt):
			return true, nil
		case err != nil:
			return false, err
		}
		f.Close()
		s.scrub.bytesVerified.Add(uint64(info.bytes))
	}
	f, err := os.Open(s.path(logName))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("storage: scrub opening log: %w", err)
	}
	defer f.Close()
	size, _, _, err := scanFile(io.NewSectionReader(f, 0, logSize), func(record, int64, int64) error { return nil })
	if err != nil {
		return false, fmt.Errorf("storage: scrub reading log: %w", err)
	}
	s.scrub.bytesVerified.Add(uint64(size))
	return size != logSize, nil
}
