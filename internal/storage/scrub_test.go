package storage

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// flipByte flips the byte at off of a file in dir.
func flipByte(t *testing.T, dir, name string, off int64) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x5A
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestScrubQuarantinesAndSalvagesBitFlip: a bit flip in the checkpoint
// is found by the next scrub and salvaged by a fresh checkpoint from
// memory, which replaces the damaged file: the directory reloads as the
// corpus and the next scrub is clean.
func TestScrubQuarantinesAndSalvagesBitFlip(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	defer s.Close()
	churn(t, corpus, 1)
	st := s.Stats()
	flipByte(t, dir, checkpointPrefix+strconv.FormatUint(st.CheckpointVersion, 10), st.CheckpointBytes/2)
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if st := s.ScrubStats(); st.CorruptionsFound != 1 || st.Salvages != 1 {
		t.Fatalf("ScrubStats = %+v, want one corruption found and salvaged", st)
	}
	if st := s.Stats(); st.CheckpointVersion != corpus.Version() || st.LogBytes != 0 {
		t.Fatalf("after the salvage %+v, want a checkpoint at version %d", st, corpus.Version())
	}
	if err := s.Scrub(); err != nil || s.ScrubStats().CorruptionsFound != 1 {
		t.Fatalf("scrub after the salvage: %v, %+v", err, s.ScrubStats())
	}
	if got := reloadDump(t, dir, Options{ReadOnly: true}); got != corpus.CanonicalDump() {
		t.Fatal("the salvaged directory does not reload as the corpus")
	}
}

// TestScrubRescuesTombstones: a bit flip in the log, after a delete the
// log alone holds. The salvage writes the corpus from memory, where the
// recipe is deleted, so the delete survives although its tombstone was
// in the damaged file.
func TestScrubRescuesTombstones(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	defer s.Close()
	if _, err := corpus.Remove(2); err != nil {
		t.Fatal(err)
	}
	churn(t, corpus, 1)
	flipByte(t, dir, logPrefix+"1", s.Stats().LogBytes/3)
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if st := s.ScrubStats(); st.CorruptionsFound != 1 || st.Salvages != 1 {
		t.Fatalf("ScrubStats = %+v, want one corruption found and salvaged", st)
	}
	s.Close()
	if got := reloadDump(t, dir, Options{}); got != corpus.CanonicalDump() {
		t.Fatal("the salvaged directory does not reload as the corpus")
	}
}

// TestScrubCleanThenFlipped: a pass over clean files verifies every
// byte and finds nothing; a bit flipped afterwards is caught by the
// next pass. Without a corpus bound there is nothing to salvage from:
// the scrub says so and the store keeps its files.
func TestScrubCleanThenFlipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		if err := s.Put("m-"+strconv.Itoa(i), make([]byte, 128)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Scrub(); err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	st := s.ScrubStats()
	if st.BytesVerified != uint64(s.Stats().LogBytes) || st.CorruptionsFound != 0 {
		t.Fatalf("ScrubStats = %+v on %d clean log bytes", st, s.Stats().LogBytes)
	}
	flipByte(t, dir, logPrefix+"0", s.Stats().LogBytes/2)
	if err := s.Scrub(); !errors.Is(err, ErrNoCorpus) {
		t.Fatalf("Scrub after flip = %v, want ErrNoCorpus", err)
	}
	if st := s.ScrubStats(); st.CorruptionsFound != 1 || st.Salvages != 0 || st.LastError == "" {
		t.Fatalf("ScrubStats = %+v, want one corruption, no salvage and the reason", st)
	}
}

// TestScrubBackgroundLoop: the paced goroutine verifies the files
// without any explicit call, and stops with the store.
func TestScrubBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	s, _ := boundCorpus(t, dir, Options{ScrubInterval: 2 * time.Millisecond})
	if !s.ScrubStats().Running {
		t.Fatal("scrubber not running despite ScrubInterval")
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.ScrubStats().Runs < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("background scrub ran %d passes, want >= 3", s.ScrubStats().Runs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.ScrubStats(); st.BytesVerified < uint64(s.Stats().CheckpointBytes) || st.CorruptionsFound != 0 {
		t.Fatalf("ScrubStats = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s.ScrubStats().Running {
		t.Fatal("scrubber still reported running after Close")
	}
}
