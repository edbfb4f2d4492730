package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"culinary/internal/recipedb"
)

// referenceReplay is the reference recovery: the newest checkpoint's
// records and then the log's, parsed frame by frame from whole-file
// reads and applied to a map, stopping at the log's first bad frame. It
// returns the live values and the log's valid length and record count.
func referenceReplay(t *testing.T, dir string) (live map[string]string, logBytes int64, logRecords int) {
	t.Helper()
	live = make(map[string]string)
	apply := func(buf []byte, stopAtBad bool) (int64, int) {
		off, n := 0, 0
		for off < len(buf) {
			rec, size, err := parseFrame(buf[off:])
			if err != nil || size == 0 || size > len(buf)-off {
				if !stopAtBad {
					t.Fatalf("bad frame at %d", off)
				}
				break
			}
			recs := []record{rec}
			if rec.batch { // a batch frame's value is its records' frames
				recs = nil
				for in := rec.value; len(in) > 0; {
					inner, size, err := parseFrame(in)
					if err != nil || size == 0 || size > len(in) {
						t.Fatalf("bad record inside the batch at %d", off)
					}
					recs, in = append(recs, inner), in[size:]
				}
			}
			for _, rec := range recs {
				if rec.tombstone {
					delete(live, string(rec.key))
				} else {
					live[string(rec.key)] = string(rec.value)
				}
				n++
			}
			off += size
		}
		return int64(off), n
	}
	var gen uint64
	ckpts, _ := filepath.Glob(filepath.Join(dir, checkpointPrefix+"*"))
	if len(ckpts) > 1 {
		t.Fatalf("%d checkpoints in a cleanly closed directory", len(ckpts))
	}
	if len(ckpts) == 1 {
		buf, err := os.ReadFile(ckpts[0])
		if err != nil {
			t.Fatal(err)
		}
		apply(buf, false)
		gen, _ = parseCheckpoint(bytes.NewReader(buf), func(record) error { return nil })
	}
	buf, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s%d", logPrefix, gen)))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	logBytes, logRecords = apply(buf, true)
	return live, logBytes, logRecords
}

// buildRecoveryFixture writes a log with overwrites and tombstones,
// then closes the store.
func buildRecoveryFixture(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	val := func(gen, i int) []byte {
		return bytes.Repeat([]byte{byte('a' + gen)}, 20+i%30)
	}
	for gen := 0; gen < 4; gen++ {
		for i := 0; i < 40; i++ {
			if err := s.Put(fmt.Sprintf("key%03d", i), val(gen, i)); err != nil {
				t.Fatal(err)
			}
		}
		// Delete a sliding window; some keys get resurrected by the
		// next generation, some stay dead.
		for i := gen * 7; i < gen*7+5; i++ {
			if err := s.Delete(fmt.Sprintf("key%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// buildPartialCompactionFixture writes a corpus whose mutations are
// split by a checkpoint (compaction is a checkpoint): the first half is
// in the checkpoint, the second half — replacements of recipes the
// checkpoint holds and deletes of others — in the log after it.
func buildPartialCompactionFixture(t *testing.T, dir string) {
	t.Helper()
	s, corpus := boundCorpus(t, dir, Options{})
	churn(t, corpus, 2)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r0 := corpus.Recipe(0)
	for id := 10; id < 30; id += 3 {
		if _, _, _, err := corpus.Upsert(id, fmt.Sprintf("after the checkpoint %d", id), recipedb.Korea, recipedb.AllRecipes, r0.Ingredients); err != nil {
			t.Fatal(err)
		}
		if _, err := corpus.Remove(id + 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayMatchesReference asserts that Open and Get see exactly what
// the reference replay of the checkpoint and the log sees — every live
// value, the log's length and record count — on a churned log and on a
// checkpoint with a log after it, each intact and with a torn tail.
func TestReplayMatchesReference(t *testing.T) {
	fixtures := []struct {
		name  string
		build func(*testing.T, string)
	}{
		{"churn", buildRecoveryFixture},
		{"partialCompaction", buildPartialCompactionFixture},
	}
	for _, fx := range fixtures {
		for _, tear := range []bool{false, true} {
			name := fx.name + "/clean"
			if tear {
				name = fx.name + "/tornTail"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				fx.build(t, dir)
				logs, _ := filepath.Glob(filepath.Join(dir, logPrefix+"*"))
				if len(logs) != 1 {
					t.Fatalf("logs %v, want one", logs)
				}
				if tear {
					fi, err := os.Stat(logs[0])
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(logs[0], fi.Size()-5); err != nil {
						t.Fatal(err)
					}
				}
				want, logBytes, logRecords := referenceReplay(t, dir)
				if logRecords == 0 {
					t.Fatal("the fixture left an empty log")
				}

				s, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer s.Close()
				if st := s.Stats(); st.LogBytes != logBytes || st.LogRecords != logRecords {
					t.Errorf("log %d bytes in %d records, reference %d in %d", st.LogBytes, st.LogRecords, logBytes, logRecords)
				}
				got := keys(t, s)
				if len(got) != len(want) {
					t.Errorf("%d keys, want %d", len(got), len(want))
				}
				for k, wv := range want {
					if gv, err := s.Get(k); err != nil || string(gv) != wv {
						t.Errorf("Get(%q) = %q, %v; want %q", k, gv, err, wv)
					}
				}
			})
		}
	}
}

// TestFailedOpenClosesItsSegments fails Open after it has opened the
// checkpoint — the log of its generation is a directory — repeatedly,
// read-write and read-only: the files each attempt opened must be
// closed by Open, not left for finalizers (which the test switches
// off).
func TestFailedOpenClosesItsSegments(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	dir := t.TempDir()
	s, _ := boundCorpus(t, dir, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(dir, logPrefix+"1")
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(log, 0o755); err != nil {
		t.Fatal(err)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	before := fds()
	for i := 0; i < 20; i++ {
		if _, err := Open(dir, Options{ReadOnly: i%2 == 1}); err == nil {
			t.Fatal("Open over a log that is a directory succeeded")
		}
	}
	if after := fds(); after != before {
		t.Fatalf("20 failed Opens left %d descriptors open", after-before)
	}
}

// countTombstones counts the tombstones for key in dir's log.
func countTombstones(t *testing.T, dir, key string) int {
	t.Helper()
	logs, _ := filepath.Glob(filepath.Join(dir, logPrefix+"*"))
	n := 0
	for _, path := range logs {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, err = scanFile(f, func(rec record, _, _ int64) error {
			if rec.tombstone && string(rec.key) == key {
				n++
			}
			return nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestReopenAfterPoison crashes the process while the write path is
// degraded by a runtime I/O fault — no recovery, no clean Close — and
// asserts the reopened store reconciles file bytes against the
// acknowledgment contract: every acknowledged write is present and
// correct, and the failed write is either fully absent or fully
// replayed, never half-visible or corrupting the replay.
func TestReopenAfterPoison(t *testing.T) {
	cases := []struct {
		name string
		sync bool // SyncEveryPut
		tear bool // the failing write persists half its bytes
	}{
		{"unsyncedTail", false, false},
		{"unsyncedTailTorn", false, true},
		{"syncEveryPut", true, false},
		{"syncEveryPutTorn", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := NewErrInjector()
			s, err := Open(dir, Options{SyncEveryPut: tc.sync, FaultInjection: inj})
			if err != nil {
				t.Fatal(err)
			}
			acked := make(map[string]string)
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("acked-%02d", i)
				v := fmt.Sprintf("value-%02d-%s", i, string(bytes.Repeat([]byte{'p'}, 100)))
				if err := s.Put(k, []byte(v)); err != nil {
					t.Fatalf("Put: %v", err)
				}
				acked[k] = v
			}
			if err := s.Delete("acked-00"); err != nil {
				t.Fatal(err)
			}
			delete(acked, "acked-00")

			inj.Arm(errInjectedIO, FaultWrite)
			if tc.tear {
				inj.Clear()
				// One-shot torn write: half the frame's bytes land.
				inj.FailOp(0, errInjectedIO, true)
			}
			failedVal := "failed-" + string(bytes.Repeat([]byte{'q'}, 100))
			if err := s.Put("poisoned", []byte(failedVal)); err == nil {
				t.Fatal("Put through failing write succeeded")
			}
			if got := s.Health(); got == HealthHealthy {
				t.Fatalf("Health = %v after failed write, want degraded", got)
			}
			// Acked state still serves while degraded.
			for k, v := range acked {
				if got, err := s.Get(k); err != nil || string(got) != v {
					t.Fatalf("degraded Get(%q) = (%q, %v), want %q", k, got, err, v)
				}
			}

			// Process dies here: no TryRecoverWrites, no Close.
			crashClose(s)

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after poisoned crash: %v", err)
			}
			defer s2.Close()
			for k, v := range acked {
				if got, err := s2.Get(k); err != nil || string(got) != v {
					t.Fatalf("reopened Get(%q) = (%q, %v), want acked %q", k, got, err, v)
				}
			}
			if _, err := s2.Get("acked-00"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("reopened Get(acked-00) err = %v, want ErrNotFound (acked delete lost)", err)
			}
			// The failed write: all or nothing.
			switch got, err := s2.Get("poisoned"); {
			case err == nil && string(got) == failedVal:
				// Unacked bytes replayed consistently — allowed.
			case errors.Is(err, ErrNotFound):
				// Trimmed — allowed.
			default:
				t.Fatalf("reopened Get(poisoned) = (%q, %v): failed write is half-visible", got, err)
			}
			// The replay reconciled cleanly: writes work on the reopened
			// store and indexing every record sees no decode errors.
			if err := s2.Put("after-crash", []byte("ok")); err != nil {
				t.Fatalf("Put on reopened store: %v", err)
			}
			if !has(s2, "after-crash") || len(keys(t, s2)) < len(acked)+1 {
				t.Fatalf("reopened store holds %v", keys(t, s2))
			}
		})
	}
}

// TestReopenAfterRecoveredPoison: degrade, recover in-process (which
// rewrites the acked unsynced tail into a fresh log), then crash
// WITHOUT a clean Close. The salvaged records were fsynced by recovery,
// so they must survive the crash.
func TestReopenAfterRecoveredPoison(t *testing.T) {
	dir := t.TempDir()
	inj := NewErrInjector()
	s, err := Open(dir, Options{FaultInjection: inj}) // SyncEveryPut off
	if err != nil {
		t.Fatal(err)
	}
	acked := make(map[string]string)
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("tail-%02d", i)
		v := fmt.Sprintf("unsynced-%02d", i)
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}
	inj.Arm(errInjectedIO, FaultWrite)
	if err := s.Put("boom", []byte("x")); err == nil {
		t.Fatal("Put through failing write succeeded")
	}
	inj.Clear()
	if err := s.TryRecoverWrites(); err != nil {
		t.Fatalf("TryRecoverWrites: %v", err)
	}
	crashClose(s)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for k, v := range acked {
		if got, err := s2.Get(k); err != nil || string(got) != v {
			t.Fatalf("reopened Get(%q) = (%q, %v), want salvaged %q", k, got, err, v)
		}
	}
}
