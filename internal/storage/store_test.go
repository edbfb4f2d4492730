package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

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
	if s.Len() != len(cases) {
		t.Errorf("Len = %d, want %d", s.Len(), len(cases))
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
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if st := s.Stats(); st.DeadBytes == 0 {
		t.Error("overwrites should accumulate dead bytes")
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
	if s.Has("k") {
		t.Error("Has after Delete = true")
	}
	// Deleting an absent key is a no-op.
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
}

func TestKeysSortedAndPrefixed(t *testing.T) {
	s := openTemp(t, Options{})
	for _, k := range []string{"b/2", "a/1", "b/1", "c"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Keys()
	want := []string{"a/1", "b/1", "b/2", "c"}
	if len(got) != len(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
	bs := s.KeysWithPrefix("b/")
	if len(bs) != 2 || bs[0] != "b/1" || bs[1] != "b/2" {
		t.Errorf("KeysWithPrefix(b/) = %v", bs)
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
	if s2.Len() != 99 {
		t.Errorf("Len after reopen = %d, want 99", s2.Len())
	}
	if s2.Has("key050") {
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
// active segment, and this same sequence then reloads 10 of the 30 keys
// (the last 10 land behind a hole and replay as a torn tail).
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
	if inspector.Len() != 10 {
		t.Errorf("inspector sees %d keys, want the 10 written before it opened", inspector.Len())
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
	if reopened.Len() != 30 {
		t.Errorf("reloaded %d keys, want all 30 acked writes", reopened.Len())
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("key%02d", i)
		if v, err := reopened.Get(k); err != nil || string(v) != fmt.Sprintf("val%02d", i) {
			t.Errorf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	s := openTemp(t, Options{MaxSegmentBytes: 256})
	val := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 5 {
		t.Errorf("Segments = %d, want >= 5 with 256-byte rotation", st.Segments)
	}
	// Every key must still be readable across segments.
	for i := 0; i < 50; i++ {
		if _, err := s.Get(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("Get(k%02d): %v", i, err)
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

	// Simulate a crash mid-append: chop bytes off the active segment.
	path := segmentPath(dir, 1)
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
	if s2.Len() != 9 {
		t.Errorf("Len = %d, want 9 (torn record dropped)", s2.Len())
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

func TestCorruptionInSealedSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte("v"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a byte in the middle of the first (sealed) segment.
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupted sealed segment = %v, want ErrCorrupt", err)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 1024, CompactionFloorBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Write each key many times so most bytes are dead.
	for round := 0; round < 10; round++ {
		for i := 0; i < 20; i++ {
			if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(round)}, 50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.Delete(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	if !s.NeedsCompaction() {
		t.Fatalf("expected NeedsCompaction with stats %+v", before)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.DeadBytes != 0 {
		t.Errorf("DeadBytes after compact = %d, want 0", after.DeadBytes)
	}
	if after.Keys != 15 {
		t.Errorf("Keys after compact = %d, want 15", after.Keys)
	}
	// All live values readable with final contents.
	for i := 5; i < 20; i++ {
		v, err := s.Get(fmt.Sprintf("k%02d", i))
		if err != nil {
			t.Fatalf("Get after compact: %v", err)
		}
		if len(v) != 50 || v[0] != 9 {
			t.Errorf("k%02d = round %d value, want round 9", i, v[0])
		}
	}
	// Old segment files must be gone.
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != after.Segments {
		t.Errorf("on-disk segments %d != stats %d", len(ids), after.Segments)
	}
}

func TestCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i%10), []byte(fmt.Sprintf("gen%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-compact writes land in the new active segment.
	if err := s.Put("extra", []byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 11 {
		t.Errorf("Len = %d, want 11", s2.Len())
	}
	v, err := s2.Get("k05")
	if err != nil || string(v) != "gen25" {
		t.Errorf("Get(k05) = %q, %v; want gen25", v, err)
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
	if err := s.Compact(); !errors.Is(err, ErrClosed) {
		t.Errorf("Compact on closed = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close = %v", err)
	}
}

// waitBlocked polls the goroutine dump until n goroutines are blocked in
// the given state ("chan send", "select") with fn on their stack. It is
// how the test below orders goroutines behind the commit token without a
// hook in the engine: blocked senders on a channel are served first come,
// first served.
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

// TestCloseFailsWritersParkedBehindToken: writers queued in the commit
// queue when Close takes the token are not drained by Close; the first of
// them to get the token afterwards runs the group, finds the store
// closed, and fails every one with ErrClosed. None hangs and none of
// their records reaches the log.
func TestCloseFailsWritersParkedBehindToken(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SyncEveryPut: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("before", []byte("v")); err != nil {
		t.Fatal(err)
	}

	s.commits.Lock()
	closeErr := make(chan error, 1)
	go func() { closeErr <- s.Close() }()
	waitBlocked(t, 1, "chan send", "storage.(*Store).Close") // Close is first in line

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
	waitBlocked(t, puts+batches, "select", "fanin.(*Queue")
	s.commits.Unlock()

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
	if got := s2.Keys(); len(got) != 1 || got[0] != "before" {
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

func TestFoldVisitsAllSorted(t *testing.T) {
	s := openTemp(t, Options{})
	for i := 9; i >= 0; i-- {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var visited []string
	err := s.Fold(func(k string, v []byte) error {
		visited = append(visited, k)
		if int(v[0]) != int(k[1]-'0') {
			t.Errorf("value mismatch for %s: %v", k, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 10 || visited[0] != "k0" || visited[9] != "k9" {
		t.Errorf("Fold order = %v", visited)
	}
	// Early-exit propagates the error.
	sentinel := errors.New("stop")
	if err := s.Fold(func(string, []byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("Fold error = %v, want sentinel", err)
	}
}

func TestSyncEveryPut(t *testing.T) {
	s := openTemp(t, Options{SyncEveryPut: true})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("durable")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
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
		s, err := Open(dir, Options{MaxSegmentBytes: 512})
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
	if s.Len() != len(model) {
		t.Logf("Len = %d, model %d", s.Len(), len(model))
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
