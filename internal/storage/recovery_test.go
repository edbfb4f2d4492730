package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
)

// serialReplayState is the reference recovery: a record-by-record,
// segment-by-segment replay of the log.
type serialReplayState struct {
	keydir map[string]keyLoc
	// dead is the garbage charged to each segment: a superseded record
	// to the segment holding it, a tombstone to its own.
	dead map[uint64]int64
}

// replayOrder returns dir's segment IDs in the manifest's (rank, id)
// order, the order Open replays them in.
func replayOrder(t *testing.T, dir string) []uint64 {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(ids, func(i, j int) bool { return man.rankOf(ids[i]) < man.rankOf(ids[j]) })
	return ids
}

// serialReplay rebuilds keydir state and per-segment garbage record by
// record. It repairs a torn tail on the last segment as a side effect,
// just like Open.
func serialReplay(t *testing.T, dir string) serialReplayState {
	t.Helper()
	ids := replayOrder(t, dir)
	st := serialReplayState{keydir: make(map[string]keyLoc), dead: make(map[uint64]int64)}
	for i, id := range ids {
		last := i == len(ids)-1
		st.dead[id] = 0
		_, err := scanSegment(segmentPath(dir, id), last, func(rec record, off, length int64) {
			key := string(rec.key)
			if prev, ok := st.keydir[key]; ok {
				st.dead[prev.segID] += prev.length
			}
			if rec.tombstone {
				delete(st.keydir, key)
				st.dead[id] += length
				return
			}
			st.keydir[key] = keyLoc{segID: id, offset: off, length: length, valLen: len(rec.value)}
		})
		if err != nil {
			t.Fatalf("serial replay of segment %d: %v", id, err)
		}
	}
	return st
}

// buildRecoveryFixture writes a multi-segment store with overwrites and
// tombstones, then closes it.
func buildRecoveryFixture(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{MaxSegmentBytes: 512})
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
	if st := s.Stats(); st.Segments < 4 {
		t.Fatalf("fixture built only %d segments, want >= 4", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// buildPartialCompactionFixture writes a log whose replay order is not
// its id order: a partial compaction rewrites every sealed segment but
// the oldest into outputs ranked below the active segment, and later
// puts — the first of them into that lower-id active segment —
// supersede some of the copies while a tombstone deletes another.
func buildPartialCompactionFixture(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 40; i++ {
			if err := s.Put(fmt.Sprintf("key%03d", i), bytes.Repeat([]byte{byte('a' + gen)}, 20+i%30)); err != nil {
				t.Fatal(err)
			}
		}
		// Tombstones in the victims; the oldest segment survives, so
		// the compaction must copy them.
		if err := s.Delete(fmt.Sprintf("key%03d", 30+gen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.compactSegments(sealedExceptOldest(s)); err != nil {
		t.Fatalf("partial compaction: %v", err)
	}
	var compacted []string
	for _, k := range s.Keys() {
		s.segMu.RLock()
		seg := s.segments[s.keydir[k].segID]
		s.segMu.RUnlock()
		if seg.rank != seg.id {
			compacted = append(compacted, k)
		}
	}
	if len(compacted) < 4 {
		t.Fatalf("partial compaction left %d keys in its outputs, want >= 4", len(compacted))
	}
	for i, k := range compacted {
		if i%3 == 0 {
			if err := s.Put(k, []byte("after-compaction")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete(compacted[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayMatchesReference asserts that Open rebuilds exactly the
// reference serial replay's key directory and per-segment garbage, on
// a churned log and on one whose compaction outputs rank below newer
// segments, each intact and with a torn tail on its last segment.
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
				order := replayOrder(t, dir)
				if fx.name == "partialCompaction" && slices.IsSorted(order) {
					t.Fatalf("replay order %v is id order; the fixture does not exercise ranks", order)
				}
				if tear {
					path := segmentPath(dir, order[len(order)-1])
					fi, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(path, fi.Size()-5); err != nil {
						t.Fatal(err)
					}
				}

				want := serialReplay(t, dir) // also repairs the torn tail

				s, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer s.Close()
				if len(s.keydir) != len(want.keydir) {
					t.Errorf("%d keys, want %d", len(s.keydir), len(want.keydir))
				}
				for k, wloc := range want.keydir {
					if gloc, ok := s.keydir[k]; !ok || gloc != wloc {
						t.Errorf("keydir[%q] = %+v (present=%v), want %+v", k, gloc, ok, wloc)
					}
				}
				for k := range s.keydir {
					if _, ok := want.keydir[k]; !ok {
						t.Errorf("extra key %q", k)
					}
				}
				if len(s.segments) != len(want.dead) {
					t.Errorf("%d segments, want %d", len(s.segments), len(want.dead))
				}
				var wantTotal int64
				for id, wdead := range want.dead {
					wantTotal += wdead
					seg := s.segments[id]
					if seg == nil {
						t.Errorf("segment %d not registered", id)
					} else if got := seg.dead.Load(); got != wdead {
						t.Errorf("segment %d: dead = %d, want %d", id, got, wdead)
					}
				}
				if dead := s.Stats().DeadBytes; dead != wantTotal {
					t.Errorf("Stats().DeadBytes = %d, want %d", dead, wantTotal)
				}
			})
		}
	}
}

// TestFailedOpenClosesItsSegments corrupts a sealed segment in the
// middle of the replay order and fails Open on it repeatedly: the
// segments each attempt opened before the corrupt one must be closed
// by Open, not left for finalizers (which the test switches off).
func TestFailedOpenClosesItsSegments(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skipf("no /proc/self/fd to count descriptors in: %v", err)
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Stats().Segments < 14; i++ {
		if err := s.Put(fmt.Sprintf("key%03d", i), bytes.Repeat([]byte("v"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, ids[7])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
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
		if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open over a corrupt sealed segment = %v, want ErrCorrupt", err)
		}
	}
	if after := fds(); after != before {
		t.Fatalf("20 failed Opens left %d descriptors open", after-before)
	}
}

// TestDeleteSkipsRedundantTombstone is the regression test for the
// delete TOCTOU: a second delete of an already-absent key must not log
// a second tombstone.
func TestDeleteSkipsRedundantTombstone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	afterFirst := s.Stats()
	sizeAfterFirst := s.active.size
	for i := 0; i < 5; i++ {
		if err := s.Delete("k"); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.DeadBytes != afterFirst.DeadBytes {
		t.Errorf("redundant deletes grew DeadBytes: %d -> %d", afterFirst.DeadBytes, st.DeadBytes)
	}
	if s.active.size != sizeAfterFirst {
		t.Errorf("redundant deletes appended bytes: %d -> %d", sizeAfterFirst, s.active.size)
	}
	s.Close()

	// The log must contain exactly one tombstone for k.
	tombstones := countTombstones(t, dir, "k")
	if tombstones != 1 {
		t.Errorf("log has %d tombstones for k, want 1", tombstones)
	}
}

// countTombstones scans every segment counting tombstone records for
// key.
func countTombstones(t *testing.T, dir, key string) int {
	t.Helper()
	ids, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, id := range ids {
		_, err := scanSegment(segmentPath(dir, id), i == len(ids)-1, func(rec record, _, _ int64) {
			if rec.tombstone && string(rec.key) == key {
				n++
			}
		})
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
			s, err := Open(dir, Options{
				MaxSegmentBytes: 1 << 10,
				SyncEveryPut:    tc.sync,
				FaultInjection:  inj,
			})
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
			// store and a full fold sees no decode errors.
			if err := s2.Put("after-crash", []byte("ok")); err != nil {
				t.Fatalf("Put on reopened store: %v", err)
			}
			if err := s2.Fold(func(string, []byte) error { return nil }); err != nil {
				t.Fatalf("Fold over reopened store: %v", err)
			}
		})
	}
}

// TestReopenAfterRecoveredPoison: degrade, recover in-process (which
// salvages the acked unsynced tail onto a fresh segment), then crash
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
