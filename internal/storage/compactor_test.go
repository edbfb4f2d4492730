package storage

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildCompactionFixture writes a deterministic multi-segment store
// with overwrites, resurrected keys and tombstones, returning the open
// store and the expected logical contents.
func buildCompactionFixture(t *testing.T, dir string) (*Store, map[string]string) {
	t.Helper()
	s, err := Open(dir, Options{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]string)
	key := func(i int) string { return fmt.Sprintf("key%03d", i) }
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 30; i++ {
			v := fmt.Sprintf("gen%d-%s", gen, strings.Repeat("x", 10+i))
			if err := s.Put(key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[key(i)] = v
		}
		// Deletes: gen 0/1 windows get resurrected by the next
		// generation, gen 2's stays dead.
		for i := gen * 5; i < gen*5+4; i++ {
			if err := s.Delete(key(i)); err != nil {
				t.Fatal(err)
			}
			delete(model, key(i))
		}
	}
	// Final deletes with no later put: these tombstones must keep their
	// keys dead through every compaction and crash.
	for i := 20; i < 25; i++ {
		if err := s.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		delete(model, key(i))
	}
	if st := s.Stats(); st.Segments < 4 {
		t.Fatalf("fixture built only %d segments, want >= 4", st.Segments)
	}
	return s, model
}

// verifyModel asserts the store's logical contents equal the model.
func verifyModel(t *testing.T, s *Store, model map[string]string, label string) {
	t.Helper()
	if s.Len() != len(model) {
		t.Errorf("%s: Len = %d, want %d", label, s.Len(), len(model))
	}
	for k, want := range model {
		got, err := s.Get(k)
		if err != nil || string(got) != want {
			t.Errorf("%s: Get(%q) = %q, %v; want %q", label, k, got, err, want)
		}
	}
	// Keys with a final tombstone must stay dead (resurrection check).
	for i := 20; i < 25; i++ {
		k := fmt.Sprintf("key%03d", i)
		if s.Has(k) {
			t.Errorf("%s: deleted key %q resurrected", label, k)
		}
	}
}

// sealedExceptOldest picks every sealed segment but the oldest — a
// victim set that leaves an older survivor, forcing the tombstone-copy
// path of the compactor.
func sealedExceptOldest(s *Store) []*segment {
	s.segMu.RLock()
	defer s.segMu.RUnlock()
	var sealed []*segment
	for _, seg := range s.segments {
		if seg != s.active {
			sealed = append(sealed, seg)
		}
	}
	sort.Slice(sealed, func(i, j int) bool { return segOrder(sealed[i], sealed[j]) })
	if len(sealed) <= 1 {
		return nil
	}
	return sealed[1:]
}

// TestCompactionCrashMatrix is the fault-injection matrix: for every
// filesystem operation a compaction performs, simulate power loss right
// there (later operations fail too, and the failing write tears), then
// reopen the directory and require the recovered store to hold exactly
// the pre-compaction logical contents — which equal the
// post-compaction contents, so recovery to either valid state passes
// and anything mixed (lost keys, resurrected deletes, wrong values)
// fails. Each case then proves the recovered store is fully usable:
// writes land and a clean compaction completes.
func TestCompactionCrashMatrix(t *testing.T) {
	modes := []struct {
		name    string
		compact func(s *Store) error
	}{
		{"full", func(s *Store) error { return s.Compact() }},
		// Partial pass over a suffix of the sealed segments: an older
		// survivor remains, so load-bearing tombstones must be copied
		// into the outputs, not dropped.
		{"partial", func(s *Store) error {
			return s.compactSegments(sealedExceptOldest(s))
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			// Probe run: count the operations of an uncrashed pass.
			probeDir := t.TempDir()
			ps, _ := buildCompactionFixture(t, probeDir)
			probe := &opBudget{remaining: math.MaxInt32}
			ps.fs = faultFS(probe)
			if err := mode.compact(ps); err != nil {
				t.Fatalf("probe compaction: %v", err)
			}
			ps.fs = osFS()
			ps.Close()
			total := probe.ops
			if total < 10 {
				t.Fatalf("probe saw only %d fs operations; fixture too small for a meaningful matrix", total)
			}

			for budget := 0; budget < total; budget++ {
				t.Run(fmt.Sprintf("crash-after-%d-ops", budget), func(t *testing.T) {
					dir := t.TempDir()
					s, model := buildCompactionFixture(t, dir)
					b := &opBudget{remaining: budget}
					s.fs = faultFS(b)
					err := mode.compact(s)
					if err == nil && !b.crashed {
						t.Fatalf("compaction finished within %d ops; matrix out of date", budget)
					}
					crashClose(s)

					s2, err := Open(dir, Options{})
					if err != nil {
						t.Fatalf("Open after crash: %v", err)
					}
					verifyModel(t, s2, model, "recovered")

					// The recovered store must be fully live: accept
					// writes and complete a clean compaction.
					if err := s2.Put("post-crash", []byte("v")); err != nil {
						t.Fatalf("Put after recovery: %v", err)
					}
					model["post-crash"] = "v"
					if err := s2.Compact(); err != nil {
						t.Fatalf("Compact after recovery: %v", err)
					}
					verifyModel(t, s2, model, "recompacted")
					if err := s2.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}

					s3, err := Open(dir, Options{})
					if err != nil {
						t.Fatalf("final reopen: %v", err)
					}
					verifyModel(t, s3, model, "final")
					s3.Close()
				})
			}
		})
	}
}

// TestManifestDirSyncFailureKeepsOutputs is the regression test for
// post-commit error classification: once the manifest rename has
// landed, a failing directory fsync must NOT roll back (deleting the
// staged outputs while the possibly-durable manifest sentences the
// victims would lose data at the next Open). The store must wedge,
// keep the outputs, and recover to the post-compaction state on
// reopen.
func TestManifestDirSyncFailureKeepsOutputs(t *testing.T) {
	dir := t.TempDir()
	s, model := buildCompactionFixture(t, dir)
	fs := osFS()
	realSyncDir := fs.syncDir
	tripped := false
	fs.syncDir = func(d string) error {
		if !tripped {
			tripped = true
			return fmt.Errorf("transient EIO")
		}
		return realSyncDir(d)
	}
	s.fs = fs

	err := s.Compact()
	if err == nil || !tripped {
		t.Fatalf("Compact = %v (tripped=%v), want the injected dir-sync failure", err, tripped)
	}
	if !s.compactor.wedged.Load() {
		t.Fatal("post-commit failure did not wedge the compactor")
	}
	if err := s.Compact(); err != ErrCompactorWedged {
		t.Fatalf("Compact while wedged = %v, want ErrCompactorWedged", err)
	}
	// The staged outputs must still exist: the manifest may be durable.
	_, tmps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) == 0 {
		t.Fatal("staged outputs were discarded after the manifest committed")
	}
	verifyModel(t, s, model, "wedged") // still fully readable
	crashClose(s)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after wedge: %v", err)
	}
	defer s2.Close()
	verifyModel(t, s2, model, "recovered")
	if err := s2.Compact(); err != nil {
		t.Fatalf("Compact after reopen: %v", err)
	}
	verifyModel(t, s2, model, "recompacted")
}

// TestLingeringVictimStaysSentenced is the regression test for Drop
// carry-forward: a victim kept on disk past its compaction (here by a
// pinned reader that never drains, as a crashed process would leave
// it) must stay on the manifest's Drop list through later compactions
// — otherwise a crash replays it as live and resurrects keys whose
// tombstones earlier compactions already folded away.
func TestLingeringVictimStaysSentenced(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("victim-key", []byte(strings.Repeat("v", 64))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("ballast%d", i), []byte(strings.Repeat("b", 64))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("victim-key"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("late%d", i), []byte(strings.Repeat("l", 64))); err != nil {
			t.Fatal(err)
		}
	}

	// Pin the segment holding victim-key's put, as an in-flight read
	// would; the pin is never released, as in a process that crashes
	// mid-read.
	s.segMu.RLock()
	seg1 := s.segments[1]
	if seg1 == nil {
		s.segMu.RUnlock()
		t.Fatal("segment 1 missing")
	}
	seg1.acquire()
	s.segMu.RUnlock()

	// Compaction A: the whole log prefix is rewritten, so victim-key's
	// tombstone is dropped — its put in segment 1 is the only trace
	// left, and only the Drop list keeps it dead after a crash.
	if err := s.Compact(); err != nil {
		t.Fatalf("compaction A: %v", err)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); err != nil {
		t.Fatalf("pinned victim was unlinked early: %v", err)
	}

	// Compaction B: new garbage, new manifest. Without carry-forward
	// this resets Drop and un-sentences the lingering segment 1.
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("ballast%d", i), []byte(strings.Repeat("B", 64))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("compaction B: %v", err)
	}
	crashClose(s)

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	defer s2.Close()
	if s2.Has("victim-key") {
		t.Fatal("lingering victim replayed as live: tombstoned key resurrected")
	}
	if _, err := os.Stat(segmentPath(dir, 1)); err == nil {
		t.Error("sentenced segment 1 still on disk after reopen")
	}
}

// TestPartialCompactionPreservesTombstones pins the tombstone rules: a
// tombstone whose key has an older version in a surviving segment must
// be copied; once the survivor is compacted too, the tombstone may
// drop.
func TestPartialCompactionPreservesTombstones(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1: the old put of "doomed" plus ballast.
	if err := s.Put("doomed", []byte("old-value")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("ballast%d", i), []byte(strings.Repeat("b", 30))); err != nil {
			t.Fatal(err)
		}
	}
	// Later segments: the tombstone and more ballast.
	if err := s.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("late%d", i), []byte(strings.Repeat("l", 30))); err != nil {
			t.Fatal(err)
		}
	}

	if err := s.compactSegments(sealedExceptOldest(s)); err != nil {
		t.Fatalf("partial compaction: %v", err)
	}
	if s.Has("doomed") {
		t.Fatal("tombstoned key visible after partial compaction")
	}
	s.Close()

	// The tombstone must have survived into the outputs: reopening
	// replays the old put in segment 1, then the copied tombstone.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Has("doomed") {
		t.Fatal("partial compaction dropped a load-bearing tombstone: key resurrected after reopen")
	}
	if n := countTombstones(t, dir, "doomed"); n != 1 {
		t.Errorf("tombstones on disk = %d, want 1 preserved copy", n)
	}

	// Full compaction folds the old put away; now the tombstone may go.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if s2.Has("doomed") {
		t.Fatal("key resurrected by full compaction")
	}
	s2.Close()
	if n := countTombstones(t, dir, "doomed"); n != 0 {
		t.Errorf("tombstones on disk after full compaction = %d, want 0", n)
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Has("doomed") {
		t.Fatal("key resurrected after full compaction and reopen")
	}
}

// TestBackgroundCompactorStress runs Get/Put/Delete/Fold continuously
// while the background compactor churns through several full cycles,
// under the race detector when enabled. Asserts zero lost updates
// (every writer's last value is what the store returns), stable keys
// never flicker, and every segment's refcount drains to zero at the
// end.
func TestBackgroundCompactorStress(t *testing.T) {
	s := openTemp(t, Options{
		MaxSegmentBytes:      2048,
		CompactionFloorBytes: 1,
		CompactInterval:      500 * time.Microsecond,
		CompactGarbageRatio:  0.2,
	})
	const stable = 32
	for i := 0; i < stable; i++ {
		if err := s.Put(fmt.Sprintf("stable/%03d", i), []byte("anchor")); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	var wg sync.WaitGroup

	// Writers: each owns a disjoint key space, so its view of the last
	// written value is authoritative. finals collects them.
	const writers = 3
	finals := make([]map[string]string, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make(map[string]string)
			finals[w] = mine
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("owned/w%d/%03d", w, i%61)
				val := fmt.Sprintf("w%d-gen%d-%s", w, i, strings.Repeat("v", 20))
				if err := s.Put(key, []byte(val)); err != nil {
					report(fmt.Errorf("Put(%s): %w", key, err))
					return
				}
				mine[key] = val
				if i%7 == 6 {
					if err := s.Delete(key); err != nil {
						report(fmt.Errorf("Delete(%s): %w", key, err))
						return
					}
					delete(mine, key)
				}
			}
		}(w)
	}

	// Readers: stable keys must never flicker through compactions.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("stable/%03d", (i*13+r)%stable)
				if v, err := s.Get(key); err != nil || string(v) != "anchor" {
					report(fmt.Errorf("Get(%s) = %q, %v", key, v, err))
					return
				}
			}
		}(r)
	}

	// Folder: every consistent snapshot holds all stable keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seen := 0
			err := s.Fold(func(k string, v []byte) error {
				if strings.HasPrefix(k, "stable/") {
					seen++
				}
				return nil
			})
			if err != nil {
				report(fmt.Errorf("Fold: %w", err))
				return
			}
			if seen != stable {
				report(fmt.Errorf("fold snapshot saw %d stable keys, want %d", seen, stable))
				return
			}
		}
	}()

	// Let the compactor complete at least 3 passes under load.
	deadline := time.After(30 * time.Second)
	for s.CompactionStats().Runs < 3 {
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("compactor completed only %d runs in 30s", s.CompactionStats().Runs)
		case err := <-fail:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	cs := s.CompactionStats()
	if cs.Wedged || cs.LastError != "" {
		t.Fatalf("compactor unhealthy after stress: %+v", cs)
	}
	t.Logf("compaction runs=%d segments=%d reclaimed=%d", cs.Runs, cs.SegmentsCompacted, cs.BytesReclaimed)

	// Zero lost updates: every owner's final view matches the store.
	s.compactor.loop.stop()
	for w, mine := range finals {
		for k, want := range mine {
			got, err := s.Get(k)
			if err != nil || string(got) != want {
				t.Errorf("lost update: writer %d key %q = %q, %v; want %q", w, k, got, err, want)
			}
		}
		for i := 0; i < 61; i++ {
			k := fmt.Sprintf("owned/w%d/%03d", w, i)
			if _, tracked := mine[k]; !tracked && s.Has(k) {
				t.Errorf("deleted key %q resurrected", k)
			}
		}
	}
	// With traffic and the compactor stopped, every refcount must have
	// drained: no reader or compaction pass may leak a pin.
	s.segMu.RLock()
	for id, seg := range s.segments {
		if refs := seg.refs.Load(); refs != 0 {
			t.Errorf("segment %d holds %d undrained refs", id, refs)
		}
	}
	s.segMu.RUnlock()
}

// TestGarbageRatioTriggersCompaction is the regression test for
// per-segment garbage accounting: a segment crosses the configured
// ratio exactly when its superseded bytes do, and a compaction pass at
// that ratio picks it — and only it — as a victim.
func TestGarbageRatioTriggersCompaction(t *testing.T) {
	s := openTemp(t, Options{MaxSegmentBytes: 1024, CompactionFloorBytes: 1})
	val := strings.Repeat("x", 80)
	// Fill segment 1 with 10 records, then rotate by writing elsewhere.
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("cold%02d", i), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; ; i++ {
		if err := s.Put(fmt.Sprintf("filler%03d", i), []byte(val)); err != nil {
			t.Fatal(err)
		}
		s.segMu.RLock()
		rotated := s.active.id > 1
		s.segMu.RUnlock()
		if rotated {
			break
		}
	}
	seg1 := func() *segment {
		s.segMu.RLock()
		defer s.segMu.RUnlock()
		return s.segments[1]
	}()
	if seg1 == nil {
		t.Fatal("segment 1 missing")
	}

	// Supersede cold keys one by one until segment 1 crosses 50%.
	superseded := 0
	for seg1.garbageRatio() < 0.5 {
		if superseded >= 10 {
			t.Fatalf("superseded all 10 records, ratio still %.2f", seg1.garbageRatio())
		}
		if err := s.Put(fmt.Sprintf("cold%02d", superseded), []byte("moved")); err != nil {
			t.Fatal(err)
		}
		superseded++
		if victims := s.selectVictims(0.5); seg1.garbageRatio() < 0.5 {
			for _, v := range victims {
				if v.id == 1 {
					t.Fatalf("segment 1 selected at ratio %.2f < 0.5", seg1.garbageRatio())
				}
			}
		}
	}
	found := false
	for _, v := range s.selectVictims(0.5) {
		if v.id == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("segment 1 not selected at ratio %.2f >= 0.5", seg1.garbageRatio())
	}

	before := s.Stats()
	n, err := s.compactOnce(0.5)
	if err != nil {
		t.Fatalf("compactOnce: %v", err)
	}
	if n == 0 {
		t.Fatal("compactOnce rewrote nothing despite an eligible victim")
	}
	after := s.Stats()
	if after.DeadBytes >= before.DeadBytes {
		t.Errorf("DeadBytes %d -> %d; compaction reclaimed nothing", before.DeadBytes, after.DeadBytes)
	}
	s.segMu.RLock()
	_, stillThere := s.segments[1]
	s.segMu.RUnlock()
	if stillThere {
		t.Error("victim segment 1 still registered after compaction")
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("cold%02d", i)
		want := val
		if i < superseded {
			want = "moved"
		}
		if got, err := s.Get(k); err != nil || string(got) != want {
			t.Errorf("Get(%s) = %q, %v after compaction", k, got, err)
		}
	}
}

// TestPerSegmentDeadMatchesReplay asserts the runtime garbage counters
// equal what replay computes from the log — the two accountings must
// never drift, or victim selection degrades silently.
func TestPerSegmentDeadMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := buildCompactionFixture(t, dir)
	runtimeDead := make(map[uint64]int64)
	s.segMu.RLock()
	for id, seg := range s.segments {
		runtimeDead[id] = seg.dead.Load()
	}
	s.segMu.RUnlock()
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.segMu.RLock()
	defer s2.segMu.RUnlock()
	if len(s2.segments) != len(runtimeDead) {
		t.Fatalf("segment count changed across reopen: %d -> %d", len(runtimeDead), len(s2.segments))
	}
	for id, seg := range s2.segments {
		if got, want := seg.dead.Load(), runtimeDead[id]; got != want {
			t.Errorf("segment %d: replay dead = %d, runtime tracked %d", id, got, want)
		}
	}
}
