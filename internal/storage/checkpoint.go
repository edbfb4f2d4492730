package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// Checkpoint layout: a sequence of framed records (record.go).
//
//	meta/format         "culinarydb-checkpoint/1"
//	meta/checkpoint     uvarint generation, uvarint n
//	... n records:      meta/flavor-config (JSON), recipedb.VersionKey
//	                    (version and slot bound), then recipe/<id> for
//	                    every live recipe in ascending ID order
//
// A checkpoint is complete exactly when n records follow the header and
// nothing follows them. It is written to a temp file, fsynced, renamed
// into place and the directory fsynced, so a crash leaves either the
// old checkpoint or the new one, never part of one.
const (
	formatKey        = "meta/format"
	headerKey        = "meta/checkpoint"
	flavorCfgKey     = "meta/flavor-config"
	recipePrefix     = recipedb.RecipePrefix
	checkpointFormat = "culinarydb-checkpoint/1"
)

// ErrSnapshot wraps checkpoint or log content that does not describe a
// corpus the caller can load: a recipe that does not decode, a catalog
// config that differs from the caller's.
var ErrSnapshot = errors.New("storage: bad snapshot")

// checkpointInfo describes the current checkpoint.
type checkpointInfo struct {
	name         string // "" when there is none
	gen, version uint64
	bytes        int64
	cfg          flavor.Config
}

// The checkpoint trigger: the background checkpointer looks every
// checkpointPoll and starts a checkpoint once the log is as large as the
// checkpoint (replaying it then costs as much as reading the image) and
// at least checkpointDueFloor; a full-scale corpus, a 3.5 MB checkpoint,
// gets one per few megabytes of writes. A variable only for tests.
var checkpointDueFloor int64 = 1 << 20

const checkpointPoll = 250 * time.Millisecond

// checkpointerState is the background checkpointer's loop and counters.
type checkpointerState struct {
	loop    bgLoop
	runs    atomic.Uint64
	lastErr atomic.Value // string
}

// parseCheckpoint reads a checkpoint from r, calling fn on every record
// after the header (records alias r's buffer until fn returns). It
// fails with ErrCorrupt unless the checkpoint is complete.
func parseCheckpoint(r io.Reader, fn func(rec record) error) (gen uint64, err error) {
	rr := newRecordReader(r)
	next := func() (record, bool) {
		rec, err := rr.next()
		return rec, err == nil
	}
	format, ok := next()
	if !ok || string(format.key) != formatKey || string(format.value) != checkpointFormat {
		return 0, fmt.Errorf("%w: not a checkpoint", ErrCorrupt)
	}
	hdr, ok := next()
	gen, w1 := binary.Uvarint(hdr.value)
	n, w2 := uint64(0), 0
	if w1 > 0 {
		n, w2 = binary.Uvarint(hdr.value[w1:])
	}
	if !ok || string(hdr.key) != headerKey || w1 <= 0 || w2 <= 0 {
		return 0, fmt.Errorf("%w: checkpoint header", ErrCorrupt)
	}
	for i := uint64(0); i < n; i++ {
		rec, ok := next()
		if !ok {
			return 0, fmt.Errorf("%w: checkpoint record %d of %d", ErrCorrupt, i, n)
		}
		if err := fn(rec); err != nil {
			return 0, err
		}
	}
	if _, err := rr.next(); err != io.EOF {
		return 0, fmt.Errorf("%w: bytes after the checkpoint's last record", ErrCorrupt)
	}
	return gen, nil
}

// verifyCheckpoint checks the size bytes of f as a checkpoint.
func verifyCheckpoint(f io.ReaderAt, size int64) (checkpointInfo, error) {
	info := checkpointInfo{bytes: size}
	var err error
	info.gen, err = parseCheckpoint(io.NewSectionReader(f, 0, size), func(rec record) error {
		switch string(rec.key) {
		case flavorCfgKey:
			if json.Unmarshal(rec.value, &info.cfg) != nil {
				err = fmt.Errorf("%w: flavor config", ErrCorrupt)
			}
		case recipedb.VersionKey:
			info.version, _, err = recipedb.DecodeVersion(rec.value)
		}
		return err
	})
	return info, err
}

// encodeCheckpoint writes the corpus image at v to w, a record at a
// time through one reused buffer, and returns its length.
func encodeCheckpoint(w io.Writer, gen uint64, cfg []byte, v *recipedb.View) (size int64, err error) {
	var frame, key, val []byte
	put := func(key, val []byte) {
		if frame, _ = appendRecord(frame[:0], record{key: key, value: val}); err == nil {
			_, err = w.Write(frame)
			size += int64(len(frame))
		}
	}
	put([]byte(formatKey), []byte(checkpointFormat))
	put([]byte(headerKey), binary.AppendUvarint(binary.AppendUvarint(nil, gen), uint64(v.Len()+2)))
	put([]byte(flavorCfgKey), cfg)
	put([]byte(recipedb.VersionKey), recipedb.EncodeVersion(v.Version, v.Slots()))
	for id := 0; id < v.Slots(); id++ {
		if r := v.Recipe(id); !r.Deleted {
			key, val = recipedb.AppendRecipeKey(key[:0], id), recipedb.AppendRecipe(val[:0], r)
			put(key, val)
		}
	}
	return size, err
}

// Bind makes corpus the one the store's checkpoints image, and starts
// the background checkpointer on a read-write store. recipedb's
// SetBackend calls it when the store becomes the corpus's backend:
// from then on every write comes through the corpus, so a checkpoint
// of the corpus keeps everything the log holds.
func (s *Store) Bind(corpus *recipedb.Store) {
	s.corpus.Store(corpus)
	if !s.opts.ReadOnly {
		s.ckpter.loop.start(checkpointPoll, &s.closed, func() {
			if st := s.stats.Load(); st.LogBytes >= checkpointDueFloor && st.LogBytes >= st.CheckpointBytes {
				s.Checkpoint() // a failure is in Stats; the next tick retries
			}
		})
	}
}

// Checkpoint writes the bound corpus as a fresh checkpoint and starts an
// empty log after it, under the corpus's write token (Quiesce), never
// inside a WriteBatch: a group the log had acknowledged but the corpus
// not yet applied would otherwise be in neither file. Success also ends
// a degraded write path, since both files are fresh.
func (s *Store) Checkpoint() error {
	corpus := s.corpus.Load()
	if corpus == nil && !s.closed.Load() {
		return ErrNoCorpus
	}
	return SaveCorpus(s, corpus)
}

// SaveCorpus writes corpus as the store's checkpoint, replacing whatever
// the directory held, and starts an empty log after it.
func SaveCorpus(db *Store, corpus *recipedb.Store) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.opts.ReadOnly {
		return ErrReadOnly
	}
	cfg, err := json.Marshal(corpus.Catalog().Config())
	if err != nil {
		return fmt.Errorf("storage: marshaling flavor config: %w", err)
	}
	err = corpus.Quiesce(func(v *recipedb.View) error {
		db.mu.Lock()
		defer db.mu.Unlock()
		if db.closed.Load() {
			return ErrClosed
		}
		return db.writeCheckpoint(corpus.Catalog().Config(), cfg, v)
	})
	if err != nil && !errors.Is(err, ErrClosed) {
		db.ckpter.lastErr.Store(err.Error())
	}
	return err
}

// writeCheckpoint replaces the checkpoint with the image at v and the
// log with an empty one. Caller holds the write token, then mu.
func (s *Store) writeCheckpoint(cfg flavor.Config, cfgJSON []byte, v *recipedb.View) error {
	old := s.ckpt
	next := checkpointInfo{
		name: checkpointPrefix + strconv.FormatUint(v.Version, 10),
		gen:  old.gen + 1, version: v.Version, cfg: cfg,
	}
	f, err := s.createFile(checkpointTmp, next.name, 0, func(w io.Writer) (err error) {
		next.bytes, err = encodeCheckpoint(w, next.gen, cfgJSON, v)
		return err
	})
	if err != nil {
		return fmt.Errorf("storage: writing checkpoint: %w", err)
	}
	// The new checkpoint is in place and the next Open may pick it, which
	// makes the old log stale: nothing may be appended to it any more.
	// Until the fresh log is in place the write path stays shut.
	s.closeFiles()
	s.ckpt, s.ckptFile = next, f
	s.logSize, s.logSynced, s.logRecords, s.logSyncFailed = 0, 0, 0, false
	s.index = nil
	s.publishStats()
	if err := s.fs.syncDir(s.dir); err != nil {
		err = fmt.Errorf("storage: syncing dir after checkpoint: %w", err)
		s.degradeWrites(err)
		return err
	}
	if err := s.startLog(nil); err != nil {
		return err
	}
	s.ckpter.runs.Add(1)
	// The old generation's files; Open removes any this leaves.
	s.fs.remove(s.path(logPrefix + strconv.FormatUint(old.gen, 10)))
	if old.name != "" && old.name != next.name {
		s.fs.remove(s.path(old.name))
	}
	return nil
}

// createFile writes the temp file tmp — preallocated to prealloc bytes
// first, for the log — through a buffer, fsyncs it and renames it to
// name, returning it open. After a failure the temp file is removed.
func (s *Store) createFile(tmp, name string, prealloc int64, write func(io.Writer) error) (segfile, error) {
	f, err := s.fs.create(s.path(tmp))
	if err != nil {
		return nil, err
	}
	if of := osFile(f); of != nil && prealloc > 0 {
		err = preallocate(of, prealloc)
	}
	if err == nil {
		w := bufio.NewWriterSize(io.NewOffsetWriter(f, 0), replayChunkBytes)
		if err = write(w); err == nil {
			err = w.Flush()
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = s.fs.rename(s.path(tmp), s.path(name))
	}
	if err != nil {
		f.Close()
		s.fs.remove(s.path(tmp))
		return nil, err
	}
	return f, nil
}

// startLog installs a fresh log for the current generation holding
// content, the acknowledged records to keep, and makes its directory
// entry durable before any write lands in it. Success ends a degraded
// write path, failure degrades it. Caller holds mu (or owns the store).
func (s *Store) startLog(content []byte) error {
	f, err := s.createFile(logTmp, s.logName(), int64(len(content))+logChunkBytes, func(w io.Writer) error {
		_, err := w.Write(content)
		return err
	})
	if err == nil {
		if err = s.fs.syncDir(s.dir); err != nil {
			f.Close()
		}
	}
	if err != nil {
		err = fmt.Errorf("storage: starting a log: %w", err)
		s.degradeWrites(err)
		return err
	}
	if s.log != nil {
		s.log.Close()
	}
	size := int64(len(content))
	s.log, s.logSize, s.logSynced, s.logSyncFailed, s.logAlloc = f, size, size, false, 0
	if osFile(f) != nil {
		s.logAlloc = size + logChunkBytes
	}
	s.index = nil
	s.publishStats()
	s.restoreWrites()
	return nil
}

// LoadCatalogConfig reads back the flavor configuration the checkpoint
// was built against, so callers can rebuild the identical catalog.
func LoadCatalogConfig(db *Store) (flavor.Config, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.ckpt.name == "" {
		return flavor.Config{}, fmt.Errorf("storage: no checkpoint: %w", ErrNotFound)
	}
	return db.ckpt.cfg, nil
}

// loadChunkRecipes bounds one recipedb.Load of a reload: decoded recipes
// wait in a slice this long before they are installed under one write
// critical section.
const loadChunkRecipes = 4096

// LoadCorpus reads the checkpoint, replays the log over it and installs
// the result into a new in-memory corpus bound to catalog, which must
// have been built with the configuration the checkpoint records. The
// corpus is the one upserting every live recipe under its own ID in ID
// order would build, raised to the version and slot bound of the last
// version record (recipedb.VersionKey).
func LoadCorpus(db *Store, catalog *flavor.Catalog) (*recipedb.Store, error) {
	cfg, err := LoadCatalogConfig(db)
	if err != nil {
		return nil, fmt.Errorf("storage: not a corpus snapshot: %w", err)
	}
	if cfg != catalog.Config() {
		return nil, fmt.Errorf("%w: snapshot catalog config differs from supplied catalog", ErrSnapshot)
	}
	var (
		recs    []recipedb.Recipe // by ID; Deleted = absent
		version uint64
		slots   int
	)
	apply := func(rec record, _, _ int64) error {
		key := string(rec.key)
		switch {
		case key == recipedb.VersionKey:
			if version, slots, err = recipedb.DecodeVersion(rec.value); err != nil {
				return fmt.Errorf("%w: %v", ErrSnapshot, err)
			}
		case strings.HasPrefix(key, recipePrefix):
			id, ok := recipedb.ParseRecipeKey(key)
			if !ok {
				return fmt.Errorf("%w: recipe key %q", ErrSnapshot, key)
			}
			for len(recs) <= id {
				recs = append(recs, recipedb.Recipe{ID: len(recs), Deleted: true})
			}
			recs[id] = recipedb.Recipe{ID: id, Deleted: rec.tombstone}
			if !rec.tombstone {
				r := &recs[id]
				if r.Name, r.Region, r.Source, r.Ingredients, err = recipedb.DecodeRecipe(rec.value); err != nil {
					return fmt.Errorf("storage: recipe %s: %w: %v", key, ErrSnapshot, err)
				}
			}
		}
		return nil
	}
	db.mu.Lock()
	if db.closed.Load() {
		err = ErrClosed
	}
	if err == nil {
		_, _, _, err = scanFile(io.NewSectionReader(db.ckptFile, 0, db.ckpt.bytes), apply)
	}
	if err == nil && db.log != nil {
		_, _, _, err = scanFile(io.NewSectionReader(db.log, 0, db.logSize), apply)
	}
	db.mu.Unlock()
	if err != nil {
		return nil, err
	}

	live := recs[:0]
	for _, r := range recs {
		if !r.Deleted {
			live = append(live, r)
		}
	}
	corpus := recipedb.NewStore(catalog)
	for len(live) > 0 {
		chunk := live[:min(len(live), loadChunkRecipes)]
		if n, err := corpus.Load(chunk); err != nil {
			return nil, fmt.Errorf("storage: recipe %s: %w", recipedb.RecipeKey(chunk[n].ID), err)
		}
		live = live[len(chunk):]
	}
	corpus.SyncSlots(slots) // no backend attached yet: nothing to fail
	corpus.SyncVersion(version)
	return corpus, nil
}
