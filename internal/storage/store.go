package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/recipedb"
)

// Store errors.
var (
	// ErrNotFound: Get of an absent key; LoadCorpus and
	// LoadCatalogConfig without a checkpoint.
	ErrNotFound = errors.New("storage: key not found")
	ErrClosed   = errors.New("storage: store is closed")
	// ErrReadOnly: a mutation of a store opened with Options.ReadOnly.
	ErrReadOnly = errors.New("storage: store is read-only")
	// ErrNoCorpus: Checkpoint on a store no corpus is bound to (Bind).
	ErrNoCorpus = errors.New("storage: no corpus bound to the store")
)

// FormatError is Open's answer for a directory in a format this engine
// does not read, naming the format and the file that gave it away.
// Nothing is migrated: save the corpus into an empty directory.
type FormatError struct{ Dir, File, Format string }

func (e *FormatError) Error() string {
	return fmt.Sprintf("storage: %s holds %s (%s), which this engine does not read", e.Dir, e.Format, e.File)
}

// segmentFormat is the key-directory engine this one replaced: data
// segments (*.seg) beside a compaction MANIFEST.
const segmentFormat = "the segment-and-manifest format"

// Options configures a Store. The zero value is usable.
type Options struct {
	// SyncEveryPut: a write returns once its records are on disk (one
	// fdatasync per WriteBatch). Otherwise Sync, checkpoints and Close
	// sync the log.
	SyncEveryPut bool
	// ReadOnly: mutations fail with ErrReadOnly, no goroutine starts and
	// Open writes nothing (a torn log tail is read around, temp files
	// stay) — the mode tools that look at a live server's directory use.
	ReadOnly bool
	// WriteProbeInterval runs TryRecoverWrites this often while the
	// write path is degraded (health.go); ScrubInterval runs Scrub this
	// often (scrub.go). Zero disables either.
	WriteProbeInterval, ScrubInterval time.Duration
	// FaultInjection routes every file operation through an error
	// injector (errfs.go). Testing only.
	FaultInjection *ErrInjector
}

// File names. The directory is flat: CHECKPOINT-<version> is the corpus
// image, LOG-<generation> the records written after the checkpoint of
// that generation; temp files carry .tmp until they are renamed into
// place.
const (
	checkpointPrefix = "CHECKPOINT-"
	logPrefix        = "LOG-"
	tmpExt           = ".tmp"
	checkpointTmp    = "CHECKPOINT" + tmpExt
	logTmp           = "LOG" + tmpExt
)

// logChunkBytes is how far the log is preallocated ahead of its end, so
// the fdatasync of a durable write skips the metadata journal.
const logChunkBytes = 4 << 20

// Store is the corpus's durable home: one checkpoint file and one
// append-only log. All methods are safe for concurrent use. mu is the
// log mutex: it serializes appends, syncs, the checkpoint and log
// swaps, the Get index and Close. Lock order: a bound corpus's write
// token (recipedb.Store.Quiesce), then mu.
type Store struct {
	dir  string
	opts Options
	fs   fsOps

	mu       sync.Mutex
	closed   atomic.Bool
	ckpt     checkpointInfo
	ckptFile segfile // nil without a checkpoint
	// log is the current generation's log, read-only on a ReadOnly
	// store. It is nil when there is none: on a ReadOnly store, and once
	// a checkpoint's rename has made the old one stale and before the
	// fresh one is in place (the write path is degraded then).
	log segfile
	// logSize is the acknowledged length of the log; bytes past it are
	// preallocated zeros or the remains of a failed write. logSynced is
	// the prefix a successful fsync covers; logAlloc the preallocated
	// size; logSyncFailed marks a log whose fsync failed, which is
	// never fsynced again (health.go).
	logSize, logSynced, logAlloc int64
	logRecords                   int
	logSyncFailed                bool

	index   map[string]indexEntry // Get's; nil after a write
	stats   atomic.Pointer[Stats] // the sizes, for a Stats that must not wait on mu
	corpus  atomic.Pointer[recipedb.Store]
	ckpter  checkpointerState
	whealth writeHealth
	scrub   scrubState
}

// indexEntry locates one live value for Get.
type indexEntry struct {
	src    io.ReaderAt
	off, n int64
}

// Open opens (creating if necessary) the store rooted at dir. It
// verifies the newest checkpoint's checksums, replays the log of its
// generation to find its end and truncates a torn tail. Files a crash
// left behind — temp files, superseded checkpoints, stale logs — are
// removed, unless the store is ReadOnly. A directory of the retired
// segment format fails with a *FormatError.
func Open(dir string, opts Options) (*Store, error) {
	fs := osFS()
	if opts.FaultInjection != nil {
		fs = opts.FaultInjection.wrapFS(fs)
	}
	return open(dir, opts, fs)
}

// open is Open with the filesystem seam as a parameter, so the crash
// sweep can route the whole life of a store through its budget.
func open(dir string, opts Options, fs fsOps) (*Store, error) {
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("storage: creating dir: %w", err)
		}
	}
	s := &Store{dir: dir, opts: opts, fs: fs}
	if err := s.boot(); err != nil {
		s.closeFiles()
		return nil, err
	}
	if !opts.ReadOnly && opts.WriteProbeInterval > 0 {
		s.startWriteProbe(opts.WriteProbeInterval)
	}
	if !opts.ReadOnly && opts.ScrubInterval > 0 {
		s.startScrubber(opts.ScrubInterval)
	}
	return s, nil
}

// boot finds the current checkpoint and log and reconciles the
// directory with them.
func (s *Store) boot() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("storage: listing dir: %w", err)
	}
	var ckpts, others []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".seg.tmp") || strings.HasPrefix(name, "MANIFEST"):
			return &FormatError{Dir: s.dir, File: name, Format: segmentFormat}
		case strings.HasPrefix(name, checkpointPrefix):
			ckpts = append(ckpts, name)
		case strings.HasPrefix(name, logPrefix) || strings.HasSuffix(name, tmpExt):
			others = append(others, name)
		}
	}
	// The newest generation wins. Every checkpoint was complete when it
	// was renamed into place, so one that fails verification is damage,
	// and Open fails rather than fall back to an older image whose log
	// may be gone.
	for _, name := range ckpts {
		f, info, err := openCheckpoint(s.path(name))
		if err != nil {
			return err
		}
		if info.name = name; s.ckptFile == nil || info.gen > s.ckpt.gen {
			f, s.ckptFile, s.ckpt = s.ckptFile, f, info
		}
		if f != nil {
			f.Close()
		}
	}
	if err := s.openLog(); err != nil {
		return err
	}
	if !s.opts.ReadOnly {
		for _, name := range append(ckpts, others...) {
			if name != s.ckpt.name && name != s.logName() {
				if err := s.fs.remove(s.path(name)); err != nil {
					return fmt.Errorf("storage: removing %s: %w", name, err)
				}
			}
		}
		if s.log == nil {
			if err := s.startLog(nil); err != nil {
				return err
			}
		}
	}
	s.publishStats()
	return nil
}

// openCheckpoint opens and verifies the checkpoint at path.
func openCheckpoint(path string) (segfile, checkpointInfo, error) {
	var info checkpointInfo
	f, err := os.Open(path)
	if err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			info, err = verifyCheckpoint(f, fi.Size())
		}
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, info, fmt.Errorf("storage: checkpoint %s: %w", path, err)
	}
	return f, info, nil
}

// openLog opens and replays the current generation's log, if there is
// one. A read-write store truncates a torn tail and preallocates ahead.
func (s *Store) openLog() error {
	path := s.path(s.logName())
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return nil
	}
	open := s.fs.open
	if s.opts.ReadOnly {
		open = func(path string) (segfile, error) { return os.Open(path) }
	}
	f, err := open(path)
	if err != nil {
		return fmt.Errorf("storage: opening log: %w", err)
	}
	s.log = f
	size, records, torn, err := scanFile(s.log, func(record, int64, int64) error { return nil })
	s.logSize, s.logSynced, s.logRecords = size, size, records
	if of := osFile(s.log); err == nil && of != nil && !s.opts.ReadOnly {
		if torn {
			err = of.Truncate(size)
		}
		if err == nil {
			err = preallocate(of, size+logChunkBytes)
		}
		s.logAlloc = size + logChunkBytes
	}
	return err
}

// scanFile walks the records at the front of f, calling fn on each (on
// each record of a batch frame, at its offset in f). It returns the
// length of the valid prefix, the number of records in it, and whether
// anything followed it: a torn or zero tail, which only the log may
// have. A failed fn stops the walk with its error.
func scanFile(f io.ReaderAt, fn func(rec record, off, n int64) error) (size int64, records int, torn bool, err error) {
	rr := newRecordReader(io.NewSectionReader(f, 0, 1<<62))
	for {
		start := rr.offset()
		rec, err := rr.next()
		if err == io.EOF {
			return start, records, false, nil
		}
		if err != nil {
			// A damaged or cut frame ends the valid prefix; a source that
			// fails to read is no verdict on the bytes, and fails the scan.
			if rr.srcErr != nil && rr.srcErr != io.EOF {
				return 0, 0, false, rr.srcErr
			}
			if errors.Is(err, ErrCorrupt) {
				return start, records, true, nil
			}
			return 0, 0, false, err
		}
		end := rr.offset()
		values := end - int64(len(rec.value))
		err = eachRecord(rec, func(inner record, off, n int) error {
			records++
			if !rec.batch {
				return fn(inner, start, end-start)
			}
			return fn(inner, values+int64(off), int64(n))
		})
		if err != nil {
			return 0, 0, false, err
		}
	}
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// logName is the file name of the current generation's log.
func (s *Store) logName() string { return logPrefix + strconv.FormatUint(s.ckpt.gen, 10) }

// Put stores value under key, overwriting any previous value.
func (s *Store) Put(key string, value []byte) error {
	return s.WriteBatch([]string{key}, [][]byte{value}, []bool{false})[0]
}

// Delete appends a tombstone for key; for an absent key it replays as nothing.
func (s *Store) Delete(key string) error {
	return s.WriteBatch([]string{key}, [][]byte{nil}, []bool{true})[0]
}

// WriteBatch appends the records to the log as one frame, with one
// WriteAt and — under SyncEveryPut — one fdatasync, under the log
// mutex; group commit is the caller's (recipedb's write fan-in). The
// batch is all or nothing: the returned slice, aligned with the inputs,
// is all nil, or carries the same error in every slot. Parallel slices
// let recipedb.BatchBackend declare it without importing this package.
func (s *Store) WriteBatch(keys []string, values [][]byte, tombstones []bool) []error {
	if len(values) != len(keys) || len(tombstones) != len(keys) {
		panic("storage: WriteBatch input slices differ in length")
	}
	errs := make([]error, len(keys))
	err := ErrReadOnly
	if !s.opts.ReadOnly && len(keys) > 0 {
		err = s.appendBatch(keys, values, tombstones)
	}
	for i := range errs {
		errs[i] = err
	}
	return errs
}

func (s *Store) appendBatch(keys []string, values [][]byte, tombstones []bool) (err error) {
	var frames []byte
	for i, key := range keys {
		rec := record{key: []byte(key), tombstone: tombstones[i]}
		if !rec.tombstone {
			rec.value = values[i]
		}
		if frames, err = appendRecord(frames, rec); err != nil {
			return err
		}
	}
	if len(keys) > 1 {
		if frames, err = appendRecord(nil, record{key: []byte(batchKey), value: frames, batch: true}); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if err := s.writeGate(); err != nil {
		return err
	}
	end := s.logSize + int64(len(frames))
	if f := osFile(s.log); f != nil && end > s.logAlloc {
		if err := preallocate(f, end+logChunkBytes); err == nil {
			s.logAlloc = end + logChunkBytes
		}
	}
	if _, err := s.log.WriteAt(frames, s.logSize); err != nil {
		err = fmt.Errorf("storage: appending to the log: %w", err)
		s.degradeWrites(err)
		return err
	}
	if s.opts.SyncEveryPut {
		if err := s.syncLog(); err != nil {
			return err
		}
		s.logSynced = end
	}
	s.logSize = end
	s.logRecords += len(keys)
	s.index = nil
	s.publishStats()
	return nil
}

// syncLog fdatasyncs the log. A failure marks the file as never to be
// fsynced again and degrades the write path. Caller holds mu.
func (s *Store) syncLog() error {
	if err := syncData(s.log); err != nil {
		s.logSyncFailed = true
		err = fmt.Errorf("storage: fsync: %w", err)
		s.degradeWrites(err)
		return err
	}
	return nil
}

// Sync makes every acknowledged write durable. While the write path is
// degraded it fails with ErrWriteWedged rather than fsync a file whose
// fsync already failed (health.go).
func (s *Store) Sync() error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.writeGate()
	if s.closed.Load() {
		err = ErrClosed
	}
	if err == nil {
		if err = s.syncLog(); err == nil {
			s.logSynced = s.logSize
		}
	}
	return err
}

// Get returns the value stored under key, for tools, tests and the
// benchmark's probe (no serving path reads storage). It answers from an
// index built on the first Get after a write.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if s.index == nil {
		if err := s.buildIndex(); err != nil {
			return nil, err
		}
	}
	e, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	buf := make([]byte, e.n)
	if _, err := e.src.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("storage: reading %q: %w", key, err)
	}
	return decodeFramedValue(buf, key)
}

// buildIndex maps every live key to its newest record: the checkpoint's,
// then the log's in order. Caller holds mu.
func (s *Store) buildIndex() error {
	index := make(map[string]indexEntry)
	for _, f := range []struct {
		src  io.ReaderAt
		size int64
	}{{s.ckptFile, s.ckpt.bytes}, {s.log, s.logSize}} {
		if f.src == nil {
			continue
		}
		_, _, _, err := scanFile(io.NewSectionReader(f.src, 0, f.size), func(rec record, off, n int64) error {
			if rec.tombstone {
				delete(index, string(rec.key))
			} else {
				index[string(rec.key)] = indexEntry{src: f.src, off: off, n: n}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	s.index = index
	return nil
}

// Stats reports the sizes of the two files.
type Stats struct {
	// The checkpoint: the corpus version it holds and its size (0
	// without one); the log after it.
	CheckpointVersion uint64
	CheckpointBytes   int64
	LogBytes          int64
	LogRecords        int
	// Checkpoints counts the checkpoints written since Open, SaveCorpus
	// included; LastCheckpointError is the latest failure.
	Checkpoints         uint64
	LastCheckpointError string
}

// Stats returns the store's sizes without waiting for the log mutex.
func (s *Store) Stats() Stats {
	st := *s.stats.Load()
	st.Checkpoints = s.ckpter.runs.Load()
	st.LastCheckpointError, _ = s.ckpter.lastErr.Load().(string)
	return st
}

// publishStats mirrors the sizes for Stats. Caller holds mu (or owns
// the store, in Open).
func (s *Store) publishStats() {
	s.stats.Store(&Stats{CheckpointVersion: s.ckpt.version, CheckpointBytes: s.ckpt.bytes,
		LogBytes: s.logSize, LogRecords: s.logRecords})
}

// Close stops the background goroutines, trims the log to its
// acknowledged length (dropping the preallocated zeros and what a
// failed write left), syncs it and closes both files. A writer waiting
// for the log mutex fails with ErrClosed.
func (s *Store) Close() error {
	s.ckpter.loop.stop()
	s.whealth.probe.stop()
	s.scrub.loop.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Swap(true) {
		return nil
	}
	var err error
	if f := osFile(s.log); f != nil && !s.opts.ReadOnly {
		err = f.Truncate(s.logSize)
	}
	if s.log != nil && !s.opts.ReadOnly {
		if s.logSyncFailed {
			err = s.wedgedErr()
		} else if serr := s.log.Sync(); err == nil {
			err = serr
		}
	}
	if cerr := s.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

// closeFiles closes both descriptors.
func (s *Store) closeFiles() (err error) {
	if s.log != nil {
		err = s.log.Close()
	}
	if s.ckptFile != nil {
		s.ckptFile.Close()
	}
	s.log, s.ckptFile = nil, nil
	return err
}
