// Package replica implements primary→follower replication by sealed-
// segment shipping. The storage engine was built from invariants that
// make replication almost free, and this package assembles them into a
// protocol:
//
//   - Sealed segments are immutable, so their bytes can be copied at
//     any moment without coordination.
//   - The active segment is shipped only up to its durable watermark
//     (syncedSize), which always lies on a whole-record boundary and
//     never regresses — bytes past it may still be torn or re-homed by
//     write recovery, bytes at or below it are acknowledged forever.
//   - The MANIFEST's (rank, id) replay order makes a mirrored
//     directory replay to exactly the primary's state, including
//     through compactions: a compaction output (rank ≠ id) is a copy
//     of old records, so a follower mirrors its bytes but never
//     decodes them, while segments with rank == id form the mutation
//     chain the follower tails record by record.
//   - Every corpus mutation bumps a version the primary publishes with
//     each feed state, so a follower can stamp its replayed state with
//     the exact version token the read-your-writes contract routes on.
//
// The primary side is Feed: two HTTP endpoints (state + segment bytes)
// served from a dedicated listener. The follower side is Follower: it
// bootstraps a local mirror directory from the committed manifest,
// opens it read-only to load the corpus, then tails the feed — writing
// fetched bytes into the mirror (crash-durable, resumable) and
// applying chain records to its in-memory corpus as they arrive. A
// fetch that hits a segment the primary quarantined or compacted away
// mid-ship gets a typed miss and re-syncs from a fresh state snapshot
// instead of wedging.
package replica

import (
	"encoding/json"
	"fmt"

	"culinary/internal/storage"
)

// Protocol paths served by Feed.Handler. The segment endpoint takes
// ?id=&off=&limit= and streams raw bytes; the state endpoint returns a
// State document.
const (
	StatePath   = "/replica/state"
	SegmentPath = "/replica/segment"
)

// DefaultChunkBytes is the fetch chunk a follower requests per segment
// read; MaxChunkBytes is the cap the feed enforces on ?limit=.
const (
	DefaultChunkBytes = 1 << 20
	MaxChunkBytes     = 8 << 20
)

// State is the feed's replication snapshot: the corpus version the
// listed positions are guaranteed to cover, the committed MANIFEST
// verbatim, and the shippable segment set. The guarantee is
// directional: replaying every listed segment to its listed size
// yields a corpus state at version >= Version (never an earlier one),
// because the feed samples Version before fsyncing and listing
// positions.
type State struct {
	Version uint64 `json:"version"`
	// Slots is the corpus slot bound at Version. Replaying segments
	// recovers only live recipes, so a corpus whose highest slots were
	// all tombstoned would otherwise reload short of the bound and
	// disagree with the primary on Slots() and the next free slot.
	Slots    int                   `json:"slots"`
	Manifest json.RawMessage       `json:"manifest"`
	Segments []storage.SegmentInfo `json:"segments"`
}

// chainSegments returns the mutation-chain segments (rank == id) in
// ascending id order — the only segments a follower decodes; the rest
// are compaction/salvage copies, mirrored byte-for-byte but never
// replayed record by record.
func (st *State) chainSegments() []storage.SegmentInfo {
	var chain []storage.SegmentInfo
	for _, seg := range st.Segments {
		if seg.Rank == seg.ID {
			chain = append(chain, seg)
		}
	}
	sortSegments(chain)
	return chain
}

func sortSegments(segs []storage.SegmentInfo) {
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].ID < segs[j-1].ID; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
}

// manifestDoc mirrors the storage MANIFEST wire format for the fields
// the follower needs (replay ranks and the drop list); the bytes
// themselves are mirrored verbatim so the follower's storage replay
// sees exactly what the primary committed.
type manifestDoc struct {
	Ranks map[uint64]uint64 `json:"ranks"`
	Drop  []uint64          `json:"drop"`
}

// rankOf mirrors the storage engine's rule: a segment absent from
// Ranks replays at its own ID.
func (m manifestDoc) rankOf(id uint64) uint64 {
	if r, ok := m.Ranks[id]; ok {
		return r
	}
	return id
}

func parseManifest(data []byte) (manifestDoc, error) {
	var m manifestDoc
	if len(data) == 0 {
		return m, nil
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("replica: parsing manifest: %w", err)
	}
	return m, nil
}
