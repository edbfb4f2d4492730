package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTemp(t, Options{})
	cases := map[string][]byte{
		"a":              []byte("alpha"),
		"empty":          {},
		"binary":         {0, 1, 2, 255, 254},
		"recipe/0000001": []byte("tomato basil mozzarella"),
	}
	for k, v := range cases {
		if err := s.Put(k, v); err != nil {
			t.Fatalf("Put(%q): %v", k, err)
		}
	}
	for k, want := range cases {
		got, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Get(%q) = %q, want %q", k, got, want)
		}
	}
	if n := len(keys(t, s)); n != len(cases) {
		t.Errorf("%d live keys, want %d", n, len(cases))
	}
}

func TestGetMissingKey(t *testing.T) {
	s := openTemp(t, Options{})
	if _, err := s.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) error = %v, want ErrNotFound", err)
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	s := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Put("k", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v9" {
		t.Errorf("Get = %q, want v9", got)
	}
	if n := len(keys(t, s)); n != 1 {
		t.Errorf("%d live keys, want 1", n)
	}
	if st := s.Stats(); st.LogRecords != 10 {
		t.Errorf("log holds %d records, want every overwrite until a checkpoint", st.LogRecords)
	}
}

func TestDelete(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
	}
	if has(s, "k") {
		t.Error("key live after Delete")
	}
	// Deleting an absent key is a no-op.
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("key%03d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("key050"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if n := len(keys(t, s2)); n != 99 {
		t.Errorf("%d live keys after reopen, want 99", n)
	}
	if has(s2, "key050") {
		t.Error("deleted key survived reopen")
	}
	v, err := s2.Get("key099")
	if err != nil || string(v) != "val99" {
		t.Errorf("Get(key099) = %q, %v", v, err)
	}
}

// TestReadOnlyOpenOfALiveDirectoryLosesNothing: a directory has exactly
// one read-write owner, and inspection tools (culinarydb -dbinfo, query
// -db) open it ReadOnly while the owner keeps writing. Every write the
// owner acked — before the inspector opened, while it was open and
// after it closed — must reload. A second read-write open is
// unsupported: its tail repair and its Close both truncate the owner's
// log, and its Open removes what it takes for a crash's leftovers.
func TestReadOnlyOpenOfALiveDirectoryLosesNothing(t *testing.T) {
	dir := t.TempDir()
	owner, err := Open(dir, Options{SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := owner.Put(fmt.Sprintf("key%02d", i), []byte(fmt.Sprintf("val%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(0, 10)
	inspector, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open beside the owner: %v", err)
	}
	if n := len(keys(t, inspector)); n != 10 {
		t.Errorf("inspector sees %d keys, want the 10 written before it opened", n)
	}
	put(10, 20)
	if err := inspector.Close(); err != nil {
		t.Fatal(err)
	}
	put(20, 30)
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if n := len(keys(t, reopened)); n != 30 {
		t.Errorf("reloaded %d keys, want all 30 acked writes", n)
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key%02d", i)
		if v, err := reopened.Get(k); err != nil || string(v) != fmt.Sprintf("val%02d", i) {
			t.Errorf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a crash mid-append: chop bytes off the log.
	path := filepath.Join(dir, logPrefix+"0")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if n := len(keys(t, s2)); n != 9 {
		t.Errorf("%d live keys, want 9 (torn record dropped)", n)
	}
	// The store must accept appends after repair.
	if err := s2.Put("k9", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	v, err := s2.Get("k9")
	if err != nil || string(v) != "rewritten" {
		t.Errorf("Get(k9) = %q, %v", v, err)
	}
}

// TestCorruptionInSealedSegmentFailsOpen: the checkpoint is the one
// sealed file, complete when it was renamed into place, so damage to it
// fails Open — nothing falls back to an older image whose log is gone.
func TestCorruptionInSealedSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCorpus(s, largeTestCorpus(t, testCatalog(t))); err != nil {
		t.Fatal(err)
	}
	name := checkpointPrefix + strconv.FormatUint(s.Stats().CheckpointVersion, 10)
	s.Close()

	// Flip a byte in the middle of the checkpoint.
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on a corrupted checkpoint = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{ReadOnly: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read-only Open on a corrupted checkpoint = %v, want ErrCorrupt", err)
	}
}

// boundCorpus opens a store in dir, saves largeTestCorpus into it and
// makes the store the corpus's backend, as cmd/server does.
func boundCorpus(t *testing.T, dir string, opts Options) (*Store, *recipedb.Store) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus := largeTestCorpus(t, testCatalog(t))
	if err := SaveCorpus(s, corpus); err != nil {
		t.Fatal(err)
	}
	corpus.SetBackend(s)
	return s, corpus
}

// reloadDump reopens dir and returns the reloaded corpus's dump.
func reloadDump(t *testing.T, dir string, opts Options) string {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	loaded, err := LoadCorpus(s, testCatalog(t))
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	return loaded.CanonicalDump()
}

// churn replaces and deletes recipes of corpus through its backend.
func churn(t *testing.T, corpus *recipedb.Store, rounds int) {
	t.Helper()
	r0 := corpus.Recipe(0)
	for round := 0; round < rounds; round++ {
		for id := 4; id < 24; id++ {
			name := fmt.Sprintf("round %d dish %d", round, id)
			if _, _, _, err := corpus.Upsert(id, name, recipedb.France, recipedb.Epicurious, r0.Ingredients); err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := 4; id < 9; id++ {
		if _, err := corpus.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
}

// dirNames lists the files in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCompactReclaimsSpace: compaction is a checkpoint. It folds the
// log into a fresh checkpoint of the corpus, starts an empty log, and
// leaves exactly those two files in the directory.
func TestCompactReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	defer s.Close()
	churn(t, corpus, 10)
	before := s.Stats()
	if before.LogBytes <= before.CheckpointBytes {
		t.Fatalf("churn left %+v: want a log larger than the checkpoint", before)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after := s.Stats()
	if after.LogBytes != 0 || after.LogRecords != 0 || after.CheckpointVersion != corpus.Version() {
		t.Errorf("after the checkpoint %+v: want an empty log and version %d", after, corpus.Version())
	}
	want := []string{checkpointPrefix + strconv.FormatUint(corpus.Version(), 10), logPrefix + "2"}
	if got := dirNames(t, dir); !slices.Equal(got, want) {
		t.Errorf("directory holds %v, want %v", got, want)
	}
	if got := reloadDump(t, dir, Options{ReadOnly: true}); got != corpus.CanonicalDump() {
		t.Error("the checkpoint does not reload as the corpus")
	}
}

func TestCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	churn(t, corpus, 3)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the new log.
	if _, err := corpus.Remove(30); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LogRecords != 2 {
		t.Errorf("the log holds %d records, want the delete and its version record", st.LogRecords)
	}
	s.Close()
	if got := reloadDump(t, dir, Options{}); got != corpus.CanonicalDump() {
		t.Error("reopen after a checkpoint does not reload the corpus")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s := openTemp(t, Options{})
	s.Close()
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Put on closed = %v", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("Get on closed = %v", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync on closed = %v", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint on closed = %v", err)
	}
	if err := s.Scrub(); !errors.Is(err, ErrClosed) {
		t.Errorf("Scrub on closed = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}

// waitBlocked polls the goroutine dump until n goroutines are blocked in
// the given state ("sync.Mutex.Lock") with fn on their stack. It is how
// the test below orders goroutines behind the log mutex without a hook
// in the engine: a mutex's parked waiters are woken first come, first
// served.
func waitBlocked(t *testing.T, n int, state, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "["+state) && strings.Contains(g, fn) {
				got++
			}
		}
		if got == n {
			return
		}
	}
	t.Fatalf("never saw %d goroutines blocked in %s under %s", n, state, fn)
}

// TestCloseFailsWritersParkedBehindToken: writers waiting for the log
// mutex behind Close are not drained by Close; each gets the mutex
// afterwards, finds the store closed, and fails with ErrClosed. None
// hangs and none of their records reaches the log.
func TestCloseFailsWritersParkedBehindToken(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("before", []byte("v")); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	closeErr := make(chan error, 1)
	go func() { closeErr <- s.Close() }()
	waitBlocked(t, 1, "sync.Mutex.Lock", "storage.(*Store).Close") // Close is first in line

	const puts, batches = 3, 2
	errs := make(chan error, puts+2*batches)
	for i := 0; i < puts; i++ {
		key := fmt.Sprintf("parked-put-%d", i)
		go func() { errs <- s.Put(key, []byte("x")) }()
	}
	for i := 0; i < batches; i++ {
		pair := []string{fmt.Sprintf("parked-batch-%d-a", i), fmt.Sprintf("parked-batch-%d-b", i)}
		go func() {
			for _, err := range s.WriteBatch(pair, [][]byte{[]byte("x"), []byte("y")}, []bool{false, false}) {
				errs <- err
			}
		}()
	}
	waitBlocked(t, puts+batches, "sync.Mutex.Lock", "storage.(*Store).appendBatch")
	s.mu.Unlock()

	timeout := time.After(10 * time.Second)
	for i := 0; i < cap(errs); i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("parked write = %v, want ErrClosed", err)
			}
		case <-timeout:
			t.Fatal("a writer parked behind Close never returned")
		}
	}
	if err := <-closeErr; err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := keys(t, s2); len(got) != 1 || got[0] != "before" {
		t.Errorf("reopened keys = %v, want only the write acknowledged before Close", got)
	}
}

func TestKeyLimits(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("", []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("empty key error = %v, want ErrTooLarge", err)
	}
	long := string(bytes.Repeat([]byte("k"), MaxKeyLen+1))
	if err := s.Put(long, []byte("v")); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized key error = %v, want ErrTooLarge", err)
	}
}

func TestSyncEveryPut(t *testing.T) {
	s := openTemp(t, Options{SyncEveryPut: true})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("durable")); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(keys(t, s)); n != 5 {
		t.Errorf("%d live keys, want 5", n)
	}
	if st := s.Stats(); st.LogRecords != 5 {
		t.Errorf("log holds %d records, want 5", st.LogRecords)
	}
}

// TestPropertyModelEquivalence drives the store with random operation
// sequences and checks it against a plain map model, including across a
// reopen at the end of each sequence.
func TestPropertyModelEquivalence(t *testing.T) {
	dirBase := t.TempDir()
	seq := 0
	check := func(seed uint64, nOps uint8) bool {
		seq++
		dir := filepath.Join(dirBase, fmt.Sprintf("case%d", seq))
		s, err := Open(dir, Options{})
		if err != nil {
			t.Logf("Open: %v", err)
			return false
		}
		model := make(map[string]string)
		src := rng.New(seed + 1)
		for op := 0; op < int(nOps); op++ {
			key := fmt.Sprintf("k%d", src.Intn(12))
			switch src.Intn(4) {
			case 0: // delete
				if err := s.Delete(key); err != nil {
					t.Logf("Delete: %v", err)
					return false
				}
				delete(model, key)
			case 1, 2, 3: // put
				val := fmt.Sprintf("v%d-%d", op, src.Intn(100))
				if err := s.Put(key, []byte(val)); err != nil {
					t.Logf("Put: %v", err)
					return false
				}
				model[key] = val
			}
		}
		ok := storeMatchesModel(t, s, model)
		s.Close()
		if !ok {
			return false
		}
		s2, err := Open(dir, Options{})
		if err != nil {
			t.Logf("reopen: %v", err)
			return false
		}
		defer s2.Close()
		return storeMatchesModel(t, s2, model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func storeMatchesModel(t *testing.T, s *Store, model map[string]string) bool {
	t.Helper()
	if n := len(keys(t, s)); n != len(model) {
		t.Logf("%d live keys, model %d", n, len(model))
		return false
	}
	for k, want := range model {
		got, err := s.Get(k)
		if err != nil || string(got) != want {
			t.Logf("Get(%q) = %q, %v; want %q", k, got, err, want)
			return false
		}
	}
	return true
}
