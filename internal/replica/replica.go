// Package replica replicates a primary's recipe corpus to read-only
// followers as a log of corpus mutations addressed by version, with a
// whole-corpus snapshot for a follower the log cannot serve. What is
// replicated is the corpus, not the disk: a follower at version V holds
// the corpus the primary held at V, and how either side lays its store
// out on disk — segments, compactions, scrub salvage — is its own
// business.
//
// Protocol. The primary's Feed subscribes to its corpus
// (recipedb.Store.SubscribeBatch) and keeps the newest mutations in an
// in-memory backlog, in version order, on a dedicated listener:
//
//   - GET LogPath?after=V answers the mutations with versions in
//     (V, current] — at most logBatchMax of them — and the version a
//     follower stands at once it has applied them. With nothing newer
//     than V it long-polls: it answers when the corpus passes V, after
//     longPollWait, when the request ends, or when the feed closes
//     (cmd/server closes it on SIGTERM, so a long-poll never holds a
//     drain). A V the backlog cannot serve — below its floor (before
//     the feed started, or trimmed) or above the primary's version —
//     answers 410 with the envelope code resync.
//   - GET SnapshotPath answers the version, the slot bound and every
//     live recipe, captured under one corpus read.
//
// Durability rule. A follower never receives a mutation the primary's
// log could still lose. A mutation reaches the backlog only after its
// write group was written to the primary's store, and the feed samples
// what it will send first and fsyncs the store second, so the fsync
// covers everything it sends. When the fsync fails it sends nothing and
// answers 503 storage_unavailable.
//
// Resync rule. A follower owns an ordinary read-write storage.Store that
// its corpus writes through to, so it restarts from its own snapshot at
// its own version without the network. It tails the log from its corpus
// version, applying each response as one batch and then landing on the
// response's version. When the log answers resync, or a response does
// not follow from the local corpus, it fetches the snapshot and
// converges the live corpus onto it slot by slot — readers keep the same
// store throughout — landing on the snapshot's version.
//
// Wire format. Both responses are uvarint sequences; a recipe is a
// uvarint length and recipedb.EncodeRecipe bytes, and length 0 in a log
// entry deletes the slot:
//
//	log:      primary-version through count {version slot recipe}*
//	snapshot: version slots count {slot recipe}*
package replica

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"culinary/internal/recipedb"
)

// Protocol paths served by Feed.Handler.
const (
	LogPath      = "/replica/log"
	SnapshotPath = "/replica/snapshot"
)

const (
	// backlogLen is how many mutations the feed keeps for followers
	// that fall behind; it holds between backlogLen and twice as many.
	backlogLen = 1 << 14
	// logBatchMax caps the mutations in one log response.
	logBatchMax = 1024
	// longPollWait bounds how long a log request waits for a mutation.
	longPollWait = 2 * time.Second
	// retryWait is the follower's pause after a failed round.
	retryWait = 250 * time.Millisecond
	// maxResponseBytes bounds a response body the follower reads.
	maxResponseBytes = 256 << 20
)

// logBatch is one log response.
type logBatch struct {
	// primary is the primary's version when the response was sampled;
	// through is the version a follower stands at once it has applied
	// entries — the primary's, unless logBatchMax cut the response.
	primary, through uint64
	entries          []logEntry
}

// logEntry is one mutation: the slot's recipe from version on, nil when
// the mutation deleted it.
type logEntry struct {
	version uint64
	id      int
	recipe  *recipedb.Recipe
}

// snapshot is the primary's corpus at one version.
type snapshot struct {
	version uint64
	slots   int
	recipes []recipedb.Recipe // live, ascending ID
}

func appendRecipe(buf []byte, r *recipedb.Recipe) []byte {
	if r == nil {
		return binary.AppendUvarint(buf, 0)
	}
	enc := recipedb.EncodeRecipe(r)
	return append(binary.AppendUvarint(buf, uint64(len(enc))), enc...)
}

func encodeLog(b logBatch) []byte {
	buf := binary.AppendUvarint(nil, b.primary)
	buf = binary.AppendUvarint(buf, b.through)
	buf = binary.AppendUvarint(buf, uint64(len(b.entries)))
	for _, e := range b.entries {
		buf = binary.AppendUvarint(buf, e.version)
		buf = binary.AppendUvarint(buf, uint64(e.id))
		buf = appendRecipe(buf, e.recipe)
	}
	return buf
}

func encodeSnapshot(s snapshot) []byte {
	buf := binary.AppendUvarint(nil, s.version)
	buf = binary.AppendUvarint(buf, uint64(s.slots))
	buf = binary.AppendUvarint(buf, uint64(len(s.recipes)))
	for i := range s.recipes {
		buf = binary.AppendUvarint(buf, uint64(s.recipes[i].ID))
		buf = appendRecipe(buf, &s.recipes[i])
	}
	return buf
}

// errWire marks a response body that does not decode.
var errWire = errors.New("replica: malformed response")

// decoder reads one response body; the first failure sticks.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errWire, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("bad or missing uvarint with %d bytes left", len(d.data))
		return 0
	}
	d.data = d.data[n:]
	return v
}

// int reads a slot number or count; every one fits a corpus slot table.
func (d *decoder) int() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail("%d out of range", v)
		return 0
	}
	return int(v)
}

// count reads an element count, each element taking at least two bytes.
func (d *decoder) count() int {
	n := d.int()
	if n > len(d.data)/2 {
		d.fail("%d elements in %d bytes", n, len(d.data))
		return 0
	}
	return n
}

// recipe reads one recipe for slot id; nil stands for a deletion.
func (d *decoder) recipe(id int) *recipedb.Recipe {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.data)) {
		d.fail("recipe of %d bytes with %d left", n, len(d.data))
		return nil
	}
	name, region, source, ings, err := recipedb.DecodeRecipe(d.data[:n])
	d.data = d.data[n:]
	if err != nil {
		d.fail("slot %d: %v", id, err)
		return nil
	}
	return &recipedb.Recipe{ID: id, Name: name, Region: region, Source: source, Ingredients: ings}
}

func (d *decoder) finish() error {
	if d.err == nil && len(d.data) > 0 {
		d.fail("%d trailing bytes", len(d.data))
	}
	return d.err
}

// decodeLog parses a log response. Entry versions ascend strictly and
// none exceeds through, which does not exceed the primary's version.
func decodeLog(data []byte) (logBatch, error) {
	d := &decoder{data: data}
	b := logBatch{primary: d.uvarint(), through: d.uvarint()}
	n := d.count()
	for i := 0; i < n && d.err == nil; i++ {
		e := logEntry{version: d.uvarint(), id: d.int()}
		e.recipe = d.recipe(e.id)
		if i > 0 && e.version <= b.entries[i-1].version {
			d.fail("version %d after %d", e.version, b.entries[i-1].version)
		}
		b.entries = append(b.entries, e)
	}
	switch {
	case d.err != nil:
	case b.through > b.primary:
		d.fail("through version %d past the primary's %d", b.through, b.primary)
	case n > 0 && b.entries[n-1].version > b.through:
		d.fail("entry at version %d past the through version %d", b.entries[n-1].version, b.through)
	}
	if err := d.finish(); err != nil {
		return logBatch{}, err
	}
	return b, nil
}

// decodeSnapshot parses a snapshot response. Slots ascend strictly
// below the slot bound, and the version is at least the recipe count:
// every live recipe took a version to create.
func decodeSnapshot(data []byte) (snapshot, error) {
	d := &decoder{data: data}
	s := snapshot{version: d.uvarint(), slots: d.int()}
	n := d.count()
	s.recipes = make([]recipedb.Recipe, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		id := d.int()
		r := d.recipe(id)
		switch {
		case d.err != nil:
		case r == nil:
			d.fail("slot %d without a recipe", id)
		case id >= s.slots || i > 0 && id <= s.recipes[i-1].ID:
			d.fail("slot %d out of order or past the bound %d", id, s.slots)
		default:
			s.recipes = append(s.recipes, *r)
		}
	}
	if d.err == nil && uint64(n) > s.version {
		d.fail("%d recipes at version %d", n, s.version)
	}
	if err := d.finish(); err != nil {
		return snapshot{}, err
	}
	return s, nil
}
