package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"
)

func openBatchStore(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestWriteBatchBasic(t *testing.T) {
	s, dir := openBatchStore(t, Options{SyncEveryPut: true})
	if err := s.Put("doomed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "doomed", "c"}
	values := [][]byte{[]byte("va"), []byte("vb"), nil, []byte("vc")}
	tombs := []bool{false, false, true, false}
	for i, err := range s.WriteBatch(keys, values, tombs) {
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	for _, k := range []string{"a", "b", "c"} {
		got, err := s.Get(k)
		if err != nil || !bytes.Equal(got, []byte("v"+k)) {
			t.Fatalf("Get(%q) = %q, %v", k, got, err)
		}
	}
	if _, err := s.Get("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstoned key still resolves: %v", err)
	}

	// The whole state must survive a close/reopen cycle.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range []string{"a", "b", "c"} {
		if got, err := re.Get(k); err != nil || !bytes.Equal(got, []byte("v"+k)) {
			t.Fatalf("after reopen Get(%q) = %q, %v", k, got, err)
		}
	}
	if _, err := re.Get("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstone lost across reopen: %v", err)
	}
}

// TestWriteBatchRedundantTombstone pins the no-op contract: deleting an
// absent key inside a batch succeeds and the key stays absent, before
// and after a reopen. The tombstone is logged (no index decides that it
// is redundant); it replays as nothing.
func TestWriteBatchRedundantTombstone(t *testing.T) {
	s, dir := openBatchStore(t, Options{})
	before := s.Stats().LogRecords
	errs := s.WriteBatch(
		[]string{"ghost", "real"},
		[][]byte{nil, []byte("v")},
		[]bool{true, false},
	)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v", errs)
	}
	if got := s.Stats().LogRecords; got != before+2 {
		t.Fatalf("log records %d -> %d, want both logged", before, got)
	}
	check := func(s *Store, label string) {
		if got := keys(t, s); len(got) != 1 || got[0] != "real" {
			t.Fatalf("%s: keys = %v, want [real]", label, got)
		}
		if got, err := s.Get("real"); err != nil || !bytes.Equal(got, []byte("v")) {
			t.Fatalf("%s: Get(real) = %q, %v", label, got, err)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, "reopened")
}

// TestWriteBatchEquivalentToSerialWrites proves one WriteBatch leaves
// the same durable state as the same records written one at a time.
func TestWriteBatchEquivalentToSerialWrites(t *testing.T) {
	batched, _ := openBatchStore(t, Options{SyncEveryPut: true})
	serial, _ := openBatchStore(t, Options{SyncEveryPut: true})

	var keys []string
	var values [][]byte
	var tombs []bool
	for i := 0; i < 40; i++ {
		keys = append(keys, fmt.Sprintf("k%02d", i%16)) // duplicates on purpose
		values = append(values, []byte(fmt.Sprintf("v%d", i)))
		tombs = append(tombs, i%7 == 3)
	}
	for i, err := range batched.WriteBatch(keys, values, tombs) {
		if err != nil {
			t.Fatalf("batched record %d: %v", i, err)
		}
	}
	for i := range keys {
		var err error
		if tombs[i] {
			err = serial.Delete(keys[i])
		} else {
			err = serial.Put(keys[i], values[i])
		}
		if err != nil {
			t.Fatalf("serial record %d: %v", i, err)
		}
	}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("k%02d", i)
		bv, berr := batched.Get(k)
		sv, serr := serial.Get(k)
		if (berr == nil) != (serr == nil) || !bytes.Equal(bv, sv) {
			t.Fatalf("key %q: batched (%q, %v) vs serial (%q, %v)", k, bv, berr, sv, serr)
		}
	}
}

// TestWriteBatchMidFaultDegradesWholeGroup: an injected I/O failure on
// the batch's sync fails every record that did not reach durability,
// degrades the store, and queued writers behind the wedge observe
// ErrWriteWedged — the signal the HTTP layer maps to one retryable 503
// per caller.
func TestWriteBatchMidFaultDegradesWholeGroup(t *testing.T) {
	inj := NewErrInjector()
	s, _ := openBatchStore(t, Options{SyncEveryPut: true, FaultInjection: inj})
	if err := s.Put("seed", []byte("x")); err != nil {
		t.Fatal(err)
	}
	inj.Arm(syscall.EIO, FaultSync, FaultWrite)
	errs := s.WriteBatch(
		[]string{"p", "q"},
		[][]byte{[]byte("1"), []byte("2")},
		[]bool{false, false},
	)
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed != len(errs) {
		t.Fatalf("want the whole group failed under a sync fault, got errs = %v", errs)
	}
	if s.Health() == HealthHealthy {
		t.Fatal("store still healthy after injected batch fault")
	}
	// A follow-up batch must fast-fail with the wedge error.
	for _, err := range s.WriteBatch([]string{"r"}, [][]byte{[]byte("3")}, []bool{false}) {
		if !errors.Is(err, ErrWriteWedged) {
			t.Fatalf("queued batch error = %v, want ErrWriteWedged", err)
		}
	}
	// None of the failed records may be visible.
	for _, k := range []string{"p", "q", "r"} {
		if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("unacked record %q visible: %v", k, err)
		}
	}
	inj.Clear()
	if err := s.TryRecoverWrites(); err != nil {
		t.Fatal(err)
	}
	for i, err := range s.WriteBatch([]string{"p", "q"}, [][]byte{[]byte("1"), []byte("2")}, []bool{false, false}) {
		if err != nil {
			t.Fatalf("post-recovery record %d: %v", i, err)
		}
	}
	if got, err := s.Get("p"); err != nil || !bytes.Equal(got, []byte("1")) {
		t.Fatalf("post-recovery Get(p) = %q, %v", got, err)
	}
}

// TestWriteBatchConcurrentWithPuts races batches against single puts:
// every acknowledged record must be durable and the group commit must
// not lose or reorder same-key updates within one batch.
func TestWriteBatchConcurrentWithPuts(t *testing.T) {
	s, dir := openBatchStore(t, Options{SyncEveryPut: true})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.Put(fmt.Sprintf("solo-%d-%d", w, i), []byte{byte(w)}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				keys := make([]string, 5)
				values := make([][]byte, 5)
				tombs := make([]bool, 5)
				for j := range keys {
					keys[j] = fmt.Sprintf("batch-%d-%d-%d", w, i, j)
					values[j] = []byte{byte(j)}
				}
				// Same-key overwrite inside one batch: last wins.
				keys[4], values[4] = keys[0], []byte{0xff}
				for k, err := range s.WriteBatch(keys, values, tombs) {
					if err != nil {
						t.Errorf("batch record %d: %v", k, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for w := 0; w < 4; w++ {
		for i := 0; i < 25; i++ {
			k := fmt.Sprintf("solo-%d-%d", w, i)
			if _, err := re.Get(k); err != nil {
				t.Fatalf("acked put %q lost: %v", k, err)
			}
		}
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < 10; i++ {
			if got, err := re.Get(fmt.Sprintf("batch-%d-%d-0", w, i)); err != nil || !bytes.Equal(got, []byte{0xff}) {
				t.Fatalf("in-batch overwrite lost: %q, %v", got, err)
			}
		}
	}
}
