package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// segmentExt is the on-disk suffix of data segments. Segment file names
// are zero-padded sequence numbers ("000001.seg") so lexical order is
// creation order.
const segmentExt = ".seg"

// segTmpExt suffixes half-built compaction outputs ("000010.seg.tmp").
// They become real segments only by rename after the manifest commits;
// Open deletes any left by a crash whose manifest never committed.
const segTmpExt = ".tmp"

// segment is one immutable (or, for the newest, append-only) data file.
// Readers pin a segment with acquire/release so compaction and Close
// can retire it without yanking the descriptor out from under an
// in-flight ReadAt: the file closes when the last reference drains.
type segment struct {
	id   uint64
	path string
	f    segfile // opened read-write; sealed segments are only read
	size int64
	// rank is the replay merge-order key (see manifest.go). Equal to id
	// except for compaction outputs, which inherit their victims' rank.
	rank uint64
	// dead counts bytes held by superseded records and tombstones in
	// this file — the garbage statistic compaction selects victims by.
	dead atomic.Int64

	// syncedSize is the byte prefix known durable: advanced only after a
	// successful fsync covering it (group-commit sync, rotation seal,
	// explicit Sync), and set to the on-disk size at replay. Read and
	// written under the commit token, like size. When a write fault
	// poisons the segment, recovery seals it at this boundary —
	// everything beyond is either unacknowledged (SyncEveryPut) or
	// salvaged into a fresh segment first.
	syncedSize int64
	// poisoned marks an active segment a write-path operation failed on;
	// no further appends land in it, and write recovery seals it.
	poisoned atomic.Bool
	// syncFailed marks a file whose fsync returned an error. Such a file
	// is never fsynced again: the kernel may have marked its dirty pages
	// clean, so a retried fsync can return success without the bytes
	// being durable (the "fsyncgate" trap). Durability is only restored
	// by writing the bytes to a fresh segment.
	syncFailed atomic.Bool
	// quarantined marks a sealed segment the scrubber found corrupt:
	// excluded from compaction victim selection (its scan would fail)
	// until salvage rewrites what it can and retires it.
	quarantined atomic.Bool
	// scrubs counts completed CRC walks over this segment.
	scrubs atomic.Uint64

	refs atomic.Int32
	// removeOnClose is written before the retired store and read only
	// after observing retired, so the atomic orders it.
	removeOnClose bool
	retired       atomic.Bool
	closeOnce     sync.Once
	// removeFn unlinks the file at close when removeOnClose is set; it
	// is the store's fs.remove hook so the crash harness can fail it.
	removeFn func(path string) error
}

// acquire pins the segment. Callers must hold segMu (either mode) so a
// concurrent retire — which requires segMu exclusively — cannot
// interleave.
func (g *segment) acquire() { g.refs.Add(1) }

// release unpins the segment, closing (and possibly removing) the file
// if it was retired and this was the last reader.
func (g *segment) release() {
	if g.refs.Add(-1) == 0 && g.retired.Load() {
		g.closeFile() // error unreportable from a reader; see retire
	}
}

// retire marks the segment dead, reporting the close error when the
// file closes synchronously (no pinned readers). Caller holds segMu
// exclusively, so no new acquires can race; otherwise the file closes
// when the last pinned reader releases. With removeFile, the file is
// also unlinked at close time — after the descriptor is closed, so
// platforms that refuse to unlink open files (Windows) work too. A
// file that survives a crash in this window replays harmlessly:
// compaction output has higher segment IDs and overrides it.
func (g *segment) retire(removeFile bool) error {
	g.removeOnClose = removeFile
	g.retired.Store(true)
	if g.refs.Load() == 0 {
		return g.closeFile()
	}
	return nil
}

func (g *segment) closeFile() error {
	var err error
	g.closeOnce.Do(func() {
		err = g.f.Close()
		if g.removeOnClose {
			remove := g.removeFn
			if remove == nil {
				remove = os.Remove
			}
			remove(g.path)
		}
	})
	return err
}

// garbageRatio is the fraction of this segment's bytes held by
// superseded records and tombstones.
func (g *segment) garbageRatio() float64 {
	if g.size <= 0 {
		return 0
	}
	return float64(g.dead.Load()) / float64(g.size)
}

// segmentPath renders the file path for a segment ID.
func segmentPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", id, segmentExt))
}

// parseSegmentID extracts the ID from a segment file name, reporting
// whether the name is a well-formed segment name.
func parseSegmentID(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segmentExt) {
		return 0, false
	}
	base := strings.TrimSuffix(name, segmentExt)
	if len(base) != 8 {
		return 0, false
	}
	id, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// segmentTmpPath renders the staging path a compaction output is
// written to before the manifest commits.
func segmentTmpPath(dir string, id uint64) string {
	return segmentPath(dir, id) + segTmpExt
}

// listSegments returns the segment IDs present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ids, _, err := scanDir(dir)
	return ids, err
}

// scanDir classifies the store directory into committed segment IDs and
// half-built compaction outputs (*.seg.tmp), both ascending.
func scanDir(dir string) (ids, tmps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: reading dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, segmentExt+segTmpExt) {
			if id, ok := parseSegmentID(strings.TrimSuffix(name, segTmpExt)); ok {
				tmps = append(tmps, id)
			}
			continue
		}
		if id, ok := parseSegmentID(name); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Slice(tmps, func(i, j int) bool { return tmps[i] < tmps[j] })
	return ids, tmps, nil
}

// scanRecords decodes r record by record, invoking fn for each with its
// offset and framed length, and returns the offset it stopped at: the
// stream's length at a clean end, or the start of the frame that failed
// to decode along with that error. rec's key and value alias the
// reader's chunk and are valid only until fn returns.
func scanRecords(r io.Reader, fn func(rec record, off, length int64)) (int64, error) {
	rr := newRecordReader(r)
	for {
		off := rr.offset()
		rec, err := rr.next()
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, err
		}
		fn(rec, off, rr.offset()-off)
	}
}

// scanSegment replays one segment file through scanRecords and returns
// its size. When repairTail is true (only ever the newest segment), a
// corrupt tail is truncated away — the recovery path after a crash
// mid-append; otherwise corruption is an error.
func scanSegment(path string, repairTail bool, fn func(rec record, off, length int64)) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("storage: opening segment: %w", err)
	}
	defer f.Close()

	size, err := scanRecords(f, fn)
	if err == nil {
		return size, nil
	}
	if !repairTail {
		return 0, fmt.Errorf("storage: segment %s at offset %d: %w", filepath.Base(path), size, err)
	}
	// Torn final write: discard everything from the bad record onward and
	// resume appending there.
	if terr := os.Truncate(path, size); terr != nil {
		return 0, fmt.Errorf("storage: truncating torn tail: %w", terr)
	}
	return size, nil
}
