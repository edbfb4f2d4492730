package storage

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// segOf returns the segment currently holding key's live record.
func segOf(t *testing.T, s *Store, key string) uint64 {
	t.Helper()
	s.keyMu.RLock()
	loc, ok := s.keydir[key]
	s.keyMu.RUnlock()
	if !ok {
		t.Fatalf("segOf: %q not in keydir", key)
	}
	return loc.segID
}

// flipFrameByte corrupts key's on-disk frame by inverting the last
// byte of its value region, breaking the frame CRC.
func flipFrameByte(t *testing.T, s *Store, key string) {
	t.Helper()
	s.keyMu.RLock()
	loc, ok := s.keydir[key]
	s.keyMu.RUnlock()
	if !ok {
		t.Fatalf("flipFrameByte: %q not in keydir", key)
	}
	path := segmentPath(s.dir, loc.segID)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("opening segment for corruption: %v", err)
	}
	defer f.Close()
	b := make([]byte, 1)
	pos := loc.offset + loc.length - 1
	if _, err := f.ReadAt(b, pos); err != nil {
		t.Fatalf("reading byte to flip: %v", err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, pos); err != nil {
		t.Fatalf("flipping byte: %v", err)
	}
}

func activeSegID(s *Store) uint64 {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	return s.active.id
}

// TestScrubQuarantinesAndSalvagesBitFlip is the tentpole integration
// test: a bit flip in a cold sealed segment is detected by a scrub
// pass, the segment is quarantined and salvaged — intact live records
// rewritten, the clobbered record's key dropped and counted — and the
// corrupt file is retired so reopen never sees it.
func TestScrubQuarantinesAndSalvagesBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	val := func(i int) string {
		return fmt.Sprintf("scrub-value-%02d-%s", i, strings.Repeat("v", 120))
	}
	const n = 30
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("scrub-%02d", i), []byte(val(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}

	// Pick a victim key living in a sealed segment and flip a byte of
	// its frame on disk.
	victim := ""
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("scrub-%02d", i)
		if segOf(t, s, k) != activeSegID(s) {
			victim = k
			break
		}
	}
	if victim == "" {
		t.Fatal("no key landed in a sealed segment; MaxSegmentBytes too large for fixture")
	}
	corruptSeg := segOf(t, s, victim)
	flipFrameByte(t, s, victim)

	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	st := s.ScrubStats()
	if st.CorruptionsFound != 1 {
		t.Fatalf("CorruptionsFound = %d, want 1", st.CorruptionsFound)
	}
	if st.RecordsLost != 1 {
		t.Fatalf("RecordsLost = %d, want 1 (only the flipped frame)", st.RecordsLost)
	}
	if st.RecordsSalvaged == 0 {
		t.Fatal("RecordsSalvaged = 0, want the segment's intact records rewritten")
	}
	if q := s.HealthStats().QuarantinedSegments; q != 0 {
		t.Fatalf("QuarantinedSegments = %d after salvage, want 0 (segment retired)", q)
	}
	if _, err := os.Stat(segmentPath(dir, corruptSeg)); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment file still on disk (stat err %v)", err)
	}

	// The clobbered record is lost, not half-served; every other record
	// survives byte-for-byte.
	if _, err := s.Get(victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(%s) err = %v, want ErrNotFound after losing its frame", victim, err)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("scrub-%02d", i)
		if k == victim {
			continue
		}
		got, err := s.Get(k)
		if err != nil || string(got) != val(i) {
			t.Fatalf("post-salvage Get(%q) = (%q, %v), want %q", k, got, err, val(i))
		}
	}

	// A second pass finds nothing new.
	if err := s.Scrub(); err != nil {
		t.Fatalf("second Scrub: %v", err)
	}
	if got := s.ScrubStats().CorruptionsFound; got != 1 {
		t.Fatalf("CorruptionsFound after clean re-scrub = %d, want still 1", got)
	}

	// Reopen: the salvaged state replays cleanly.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after salvage: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get(victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reopened Get(%s) err = %v, want ErrNotFound", victim, err)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("scrub-%02d", i)
		if k == victim {
			continue
		}
		got, err := s2.Get(k)
		if err != nil || string(got) != val(i) {
			t.Fatalf("reopened Get(%q) = (%q, %v), want %q", k, got, err, val(i))
		}
	}
}

// TestScrubRescuesTombstones: salvaging a corrupt segment must carry
// its tombstones forward when an older segment still holds a put for
// the same key — dropping them would resurrect deleted keys at the
// next replay.
func TestScrubRescuesTombstones(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	filler := strings.Repeat("f", 150)
	put := func(k string) {
		t.Helper()
		if err := s.Put(k, []byte(filler)); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}

	// Segment A: the doomed puts, then fill until rotation.
	put("dead-key")
	put("dead-after-damage")
	segA := segOf(t, s, "dead-key")
	i := 0
	for activeSegID(s) == segA {
		put(fmt.Sprintf("fill-a-%02d", i))
		i++
	}
	// Segment B, from the top: tombstone for dead-key, a sacrificial
	// record to corrupt, a live record the rescue walk resyncs at, the
	// second tombstone, then fill until B seals.
	segB := activeSegID(s)
	if err := s.Delete("dead-key"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	put("sacrificial")
	put("resync-anchor")
	if err := s.Delete("dead-after-damage"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := segOf(t, s, "resync-anchor"); got != segB {
		t.Fatalf("fixture: resync-anchor landed in segment %d, want %d (with the tombstones)", got, segB)
	}
	i = 0
	for activeSegID(s) == segB {
		put(fmt.Sprintf("fill-b-%02d", i))
		i++
	}

	flipFrameByte(t, s, "sacrificial")
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if got := s.ScrubStats().CorruptionsFound; got != 1 {
		t.Fatalf("CorruptionsFound = %d, want 1", got)
	}
	if _, err := s.Get("sacrificial"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(sacrificial) err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("dead-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(dead-key) err = %v, want ErrNotFound", err)
	}

	// The replay is the real referee: without the rescued tombstone,
	// segment A's put would resurrect dead-key here.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get("dead-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reopened Get(dead-key) err = %v, want ErrNotFound — tombstone lost in salvage", err)
	}
	if _, err := s2.Get("dead-after-damage"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reopened Get(dead-after-damage) err = %v, want ErrNotFound — tombstone past the damage lost in salvage", err)
	}
	if _, err := s2.Get("sacrificial"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reopened Get(sacrificial) err = %v, want ErrNotFound", err)
	}
	if got, err := s2.Get("resync-anchor"); err != nil || string(got) != filler {
		t.Fatalf("reopened Get(resync-anchor) = (%q, %v), want filler", got, err)
	}
	if got, err := s2.Get("fill-a-00"); err != nil || string(got) != filler {
		t.Fatalf("reopened Get(fill-a-00) = (%q, %v), want filler", got, err)
	}
}

// TestScrubCleanThenFlipped: a full pass over clean multi-segment data
// verifies every sealed byte and finds nothing; a bit flipped afterwards
// in a segment the walk already passed once is caught by the next pass.
func TestScrubCleanThenFlipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("m-%02d", i), []byte(strings.Repeat("m", 128))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	st := s.ScrubStats()
	if st.SegmentsVerified == 0 || st.BytesVerified == 0 {
		t.Fatalf("ScrubStats = %+v, want verified segments and bytes", st)
	}
	if st.CorruptionsFound != 0 {
		t.Fatalf("CorruptionsFound = %d on clean data", st.CorruptionsFound)
	}

	victim := ""
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("m-%02d", i)
		if segOf(t, s, k) != activeSegID(s) {
			victim = k
			break
		}
	}
	if victim == "" {
		t.Fatal("no sealed key")
	}
	flipFrameByte(t, s, victim)
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub after flip: %v", err)
	}
	if got := s.ScrubStats().CorruptionsFound; got != 1 {
		t.Fatalf("CorruptionsFound = %d, want 1", got)
	}
	if q := s.HealthStats().QuarantinedSegments; q != 0 {
		t.Fatalf("QuarantinedSegments = %d, want 0 after salvage", q)
	}
}

// TestScrubBackgroundLoop: the paced goroutine walks sealed segments
// round-robin without any explicit call.
func TestScrubBackgroundLoop(t *testing.T) {
	s := openTemp(t, Options{MaxSegmentBytes: 1 << 10, ScrubInterval: 2 * time.Millisecond})
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("bg-%02d", i), []byte(strings.Repeat("b", 128))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if !s.ScrubStats().Running {
		t.Fatal("scrubber not running despite ScrubInterval")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.ScrubStats().SegmentsVerified < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("background scrub verified %d segments, want >= 3", s.ScrubStats().SegmentsVerified)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.ScrubStats().Running {
		t.Fatal("scrubber still reported running after Close")
	}
}
