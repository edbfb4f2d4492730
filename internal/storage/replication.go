package storage

// Replication export hooks. A primary ships its log to read-only
// followers as raw segment bytes: sealed segments are immutable (safe
// to copy at any time), and the active segment is shipped only up to
// its durable watermark (syncedSize) — every byte at or below the
// watermark is a whole, acknowledged, fsynced record, while bytes past
// it may still be torn, retried into a fresh segment by write
// recovery, or never acknowledged at all. A follower that mirrors the
// manifest plus each segment's shipped prefix can therefore Open the
// mirror (read-only) at any moment and recover exactly a prefix of the
// primary's acknowledged history. See README.md ("Replication
// protocol") and internal/replica for the shipping protocol built on
// these hooks.

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ManifestFileName is the manifest's file name inside a store
// directory, exported so a replica follower can mirror the primary's
// manifest bytes under the name Open expects.
const ManifestFileName = manifestName

// SegmentFileName returns the file name segment id occupies inside a
// store directory ("00000007.seg"). Followers mirror shipped bytes
// under the same names so the mirror directory opens as a regular
// store.
func SegmentFileName(id uint64) string {
	return fmt.Sprintf("%08d%s", id, segmentExt)
}

// ErrSegmentGone is the typed miss for a shipped segment the store no
// longer serves: retired by compaction, dropped by salvage, or
// quarantined by the scrubber. A follower that hits it must re-fetch
// the replication state and reconcile — the segment's live records have
// been re-homed under other (rank, id) positions.
var ErrSegmentGone = errors.New("storage: segment gone")

// SegmentInfo describes one shippable segment in a replication
// snapshot.
type SegmentInfo struct {
	// ID is the segment's file identity; Rank its replay merge-order
	// key (equal to ID except for compaction/salvage outputs, which
	// inherit their victims' rank — see manifest.go).
	ID   uint64 `json:"id"`
	Rank uint64 `json:"rank"`
	// Size is the shippable byte prefix: the full file size for sealed
	// segments, the durable watermark (syncedSize) for the active one.
	Size int64 `json:"size"`
	// Sealed reports whether the segment can still grow. A sealed
	// segment's bytes are immutable; an unsealed one's Size only ever
	// advances (until a later snapshot stops listing it as unsealed).
	Sealed bool `json:"sealed"`
	// Quarantined marks a segment the scrubber found corrupt: its live
	// records are still served (and will be salvaged into a ranked
	// output soon), but its bytes cannot be shipped — ReadSegmentAt
	// answers ErrSegmentGone. A follower already holding the full
	// prefix keeps its (pre-rot) copy; one that does not must wait for
	// the salvage to land in a later snapshot.
	Quarantined bool `json:"quarantined,omitempty"`
}

// ReplicationState returns the committed manifest (verbatim MANIFEST
// wire bytes) and the shippable segment set as one consistent pair:
// both are sampled under the compaction lock, so no compaction, scrub
// salvage or write recovery can commit a manifest the segment list
// does not reflect. Quarantined segments are listed but flagged —
// their bytes failed CRC and must not be shipped; fetches racing a
// quarantine get ErrSegmentGone from ReadSegmentAt and re-sync.
func (s *Store) ReplicationState() (manifestJSON []byte, segs []SegmentInfo, err error) {
	if s.closed.Load() {
		return nil, nil, ErrClosed
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	manifestJSON, err = json.Marshal(s.man)
	if err != nil {
		return nil, nil, fmt.Errorf("storage: encoding manifest: %w", err)
	}
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	segs = make([]SegmentInfo, 0, len(s.segments))
	for id, seg := range s.segments {
		info := SegmentInfo{ID: id, Rank: seg.rank, Quarantined: seg.quarantined.Load()}
		if seg == s.active {
			// The active segment's size is mutated under the commit
			// token while we only hold segMu, so read the atomic
			// watermark — which is also the shippable boundary.
			info.Size = seg.syncedSize.Load()
		} else {
			info.Size = seg.size
			info.Sealed = true
		}
		segs = append(segs, info)
	}
	return manifestJSON, segs, nil
}

// ReadSegmentAt reads up to limit bytes of segment id starting at off,
// capped at the segment's shippable watermark (file size when sealed,
// durable syncedSize when active). A short or empty result is not an
// error: it means the watermark has not advanced past off yet. Missing
// and quarantined segments return ErrSegmentGone.
func (s *Store) ReadSegmentAt(id uint64, off, limit int64) ([]byte, error) {
	if off < 0 || limit < 0 {
		return nil, fmt.Errorf("storage: negative segment read: off=%d limit=%d", off, limit)
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.segMu.RLock()
	seg := s.segments[id]
	if seg == nil || seg.quarantined.Load() {
		s.segMu.RUnlock()
		return nil, fmt.Errorf("%w: segment %d", ErrSegmentGone, id)
	}
	// The active segment's size moves under the commit token; only its
	// atomic watermark may be read here.
	watermark := seg.syncedSize.Load()
	if seg != s.active {
		watermark = seg.size
	}
	seg.acquire()
	s.segMu.RUnlock()
	defer seg.release()

	if off >= watermark {
		return nil, nil
	}
	n := watermark - off
	if n > limit {
		n = limit
	}
	buf := make([]byte, n)
	if _, err := seg.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: replication read segment %d: %w", id, err)
	}
	return buf, nil
}

// ReplicaRecord is one record decoded from a shipped byte stream.
type ReplicaRecord struct {
	Key       string
	Value     []byte
	Tombstone bool
}

// DecodeRecords parses the complete framed records at the front of buf
// and returns them with the byte count they span. A frame the buffer
// cuts short is not an error — shipping chunks segments at arbitrary
// byte boundaries, so the caller keeps the unconsumed suffix and
// retries once more bytes arrive. A frame that is structurally invalid
// within the available bytes (bad lengths, checksum mismatch,
// tombstone carrying a value) returns ErrCorrupt along with everything
// decoded before it. Keys and values are copied out of buf.
func DecodeRecords(buf []byte) (recs []ReplicaRecord, consumed int64, err error) {
	for {
		rec, n, err := parseFrame(buf[consumed:])
		if err != nil {
			return recs, consumed, err
		}
		if n == 0 || int64(n) > int64(len(buf))-consumed {
			return recs, consumed, nil // frame cut short by the chunk
		}
		out := ReplicaRecord{Key: string(rec.key), Tombstone: rec.tombstone}
		if !rec.tombstone {
			out.Value = append([]byte(nil), rec.value...)
		}
		recs = append(recs, out)
		consumed += int64(n)
	}
}
