package storage

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

var sweepSeed = flag.Uint64("sweep.seed", 20180416, "seed of TestCompactionCrashMatrix's write script")

// cloneCorpus copies a corpus with no backend: same live recipes, slot
// bound and version, so the same batch plans to the same records and
// versions on both.
func cloneCorpus(t *testing.T, c *recipedb.Store) *recipedb.Store {
	t.Helper()
	out := recipedb.NewStore(c.Catalog())
	var live []recipedb.Recipe
	c.Read(func(v *recipedb.View) {
		for id := 0; id < v.Slots(); id++ {
			if r := v.Recipe(id); !r.Deleted {
				live = append(live, *r)
			}
		}
	})
	if _, err := out.Load(live); err != nil {
		t.Fatal(err)
	}
	out.SyncSlots(c.Slots())
	out.SyncVersion(c.Version())
	return out
}

// sweep is one run of the crash sweep's write script: seeded write
// groups through a store-backed corpus with checkpoints among them.
// dumps holds the corpus at every version the script reached or
// attempted (a failed group's records may still reach the disk), acked
// the highest version a write was acknowledged at.
type sweep struct {
	seed  uint64
	mode  string
	dumps map[uint64]string
	acked uint64
}

const sweepSteps = 48

// run opens dir through the budget, saves the corpus, arms the budget
// and plays the script. The caller crashes the store afterwards.
func (sw *sweep) run(t *testing.T, dir string, b *opBudget, crashAfter, failAt int) *Store {
	s, err := open(dir, Options{SyncEveryPut: true}, faultFS(b))
	if err != nil {
		t.Fatal(err)
	}
	corpus := largeTestCorpus(t, testCatalog(t))
	if err := SaveCorpus(s, corpus); err != nil {
		t.Fatal(err)
	}
	corpus.SetBackend(s)
	b.arm(crashAfter, failAt)
	sw.play(t, s, corpus)
	return s
}

// play runs the script on corpus, whose backend is s: write groups of
// one to three upserts, inserts and deletes (some of them invalid),
// a checkpoint at step 8 and another at step 32, and in "partial" mode
// a recovery at step 12 (its step-8 checkpoint is the interrupted one).
func (sw *sweep) play(t *testing.T, s *Store, corpus *recipedb.Store) {
	sw.dumps = map[uint64]string{corpus.Version(): corpus.CanonicalDump()}
	sw.acked = corpus.Version()
	r0 := corpus.Recipe(0)
	src := rng.New(sw.seed)
	for step := 0; step < sweepSteps; step++ {
		switch {
		case step == 8 || step == 32:
			s.Checkpoint()
		case step == 12 && sw.mode == "partial":
			s.TryRecoverWrites()
		default:
			var items []recipedb.BatchItem
			for n := 1 + src.Intn(3); n > 0; n-- {
				id := src.Intn(corpus.Slots() + 2)
				switch src.Intn(3) {
				case 0:
					items = append(items, recipedb.BatchItem{Remove: true, ID: id})
				case 1:
					id = -1
					fallthrough
				default:
					items = append(items, recipedb.BatchItem{ID: id, Name: fmt.Sprintf("step %d dish %d", step, n),
						Region: recipedb.Region(src.Intn(5)), Source: recipedb.AllRecipes, Ingredients: r0.Ingredients})
				}
			}
			sw.apply(t, s, corpus, func(c *recipedb.Store) { c.ApplyBatch(items) })
		}
	}
}

// apply runs one write on a backend-free clone of corpus, recording the
// state it attempts, and then on corpus, recording whether it was
// acknowledged. A write the degraded store refuses never reaches the
// disk, so only an attempt on a healthy store can leave its records
// there unacknowledged; recovery and checkpoints rewrite the log without
// them before the next attempt at the same version.
func (sw *sweep) apply(t *testing.T, s *Store, corpus *recipedb.Store, write func(*recipedb.Store)) {
	shadow := cloneCorpus(t, corpus)
	write(shadow)
	v := shadow.Version()
	healthy := s.Health() == HealthHealthy
	if healthy {
		sw.dumps[v] = shadow.CanonicalDump()
	}
	write(corpus)
	if corpus.Version() > sw.acked {
		if !healthy || corpus.Version() != v {
			t.Fatalf("the corpus reached version %d, its shadow %d", corpus.Version(), v)
		}
		sw.acked = v
	}
}

// checkReload reopens dir and requires the reload to stand at a version
// no lower than acked, holding exactly the corpus the script had there.
// It returns "" or what is wrong.
func (sw *sweep) checkReload(t *testing.T, dir string, opts Options, acked uint64) string {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		return fmt.Sprintf("Open: %v", err)
	}
	defer s.Close()
	loaded, err := LoadCorpus(s, testCatalog(t))
	if err != nil {
		return fmt.Sprintf("LoadCorpus: %v", err)
	}
	v := loaded.Version()
	want, ok := sw.dumps[v]
	switch {
	case v < acked:
		return fmt.Sprintf("reloaded version %d is below the acknowledged %d", v, acked)
	case !ok:
		return fmt.Sprintf("reloaded version %d is no state the script reached (a torn group)", v)
	case loaded.CanonicalDump() != want:
		return fmt.Sprintf("the reload at version %d differs from the corpus at that version", v)
	}
	return ""
}

// TestCompactionCrashMatrix is the crash sweep (compaction is a
// checkpoint). A seeded script of write groups with checkpoints among
// them runs through a filesystem that loses power after N operations —
// the failing write tears, every later operation fails — for every N
// the script performs; "partial" additionally fails the directory fsync
// of its checkpoint with an I/O error (the checkpoint is interrupted
// after its rename, the write path shuts, recovery starts a fresh log).
// After each crash the directory must reopen, and reload at a version
// no lower than the last acknowledged write, holding exactly the corpus
// the script had at that version: no acknowledged write lost, no torn
// group. The recovered store must then take a write and a checkpoint
// and reload the same way. A failure names the seed; replay it with
// -sweep.seed.
func TestCompactionCrashMatrix(t *testing.T) {
	for _, mode := range []string{"full", "partial"} {
		t.Run(mode, func(t *testing.T) {
			sw := &sweep{seed: *sweepSeed, mode: mode}
			// Probe: count the script's operations, and find the
			// directory fsync after the mid-script checkpoint's rename.
			probe := newBudget()
			crashClose(sw.run(t, t.TempDir(), probe, 1<<30, -1))
			failAt := -1
			if mode == "partial" {
				renamed := false
				for i, op := range probe.ops {
					renamed = renamed || op == "rename:"+checkpointTmp
					if renamed && strings.HasPrefix(op, "syncdir") {
						failAt = i
						break
					}
				}
				if failAt < 0 {
					t.Fatalf("no checkpoint rename and directory fsync among %v", probe.ops)
				}
				probe = newBudget()
				crashClose(sw.run(t, t.TempDir(), probe, 1<<30, failAt))
			}
			total := len(probe.ops)
			if total < 20 {
				t.Fatalf("the script took only %d fs operations; too few for a meaningful sweep", total)
			}
			for crashAfter := 0; crashAfter < total; crashAfter++ {
				t.Run(fmt.Sprintf("crash-after-%d-ops", crashAfter), func(t *testing.T) {
					fail := func(format string, args ...any) {
						t.Helper()
						t.Fatalf("seed %d, %s, crash after %d ops: %s (replay: -run 'TestCompactionCrashMatrix/%s/crash-after-%d-ops$' -sweep.seed=%d)",
							sw.seed, mode, crashAfter, fmt.Sprintf(format, args...), mode, crashAfter, sw.seed)
					}
					dir := t.TempDir()
					b := newBudget()
					crashClose(sw.run(t, dir, b, crashAfter, failAt))
					if !b.crashed {
						fail("the script finished within %d ops; the sweep is out of date", crashAfter)
					}
					if msg := sw.checkReload(t, dir, Options{}, sw.acked); msg != "" {
						fail("recovered: %s", msg)
					}
					// The recovered store takes a write and a checkpoint.
					s, err := Open(dir, Options{SyncEveryPut: true})
					if err != nil {
						fail("reopen: %v", err)
					}
					loaded, err := LoadCorpus(s, testCatalog(t))
					if err != nil {
						fail("reload: %v", err)
					}
					loaded.SetBackend(s)
					r0 := loaded.Recipe(0)
					if _, _, _, err := loaded.Upsert(-1, "after the crash", recipedb.Korea, recipedb.AllRecipes, r0.Ingredients); err != nil {
						fail("write after recovery: %v", err)
					}
					if err := s.Checkpoint(); err != nil {
						fail("checkpoint after recovery: %v", err)
					}
					sw.dumps[loaded.Version()] = loaded.CanonicalDump()
					if err := s.Close(); err != nil {
						fail("close: %v", err)
					}
					if msg := sw.checkReload(t, dir, Options{}, loaded.Version()); msg != "" {
						fail("rewritten: %s", msg)
					}
				})
			}
		})
	}
}

// TestManifestDirSyncFailureKeepsOutputs: a checkpoint's rename is the
// commit the manifest's used to be. Once it has landed, a failing
// directory fsync must not roll anything back — the new checkpoint may
// already be what the next Open reads, which makes the old log stale —
// so the store shuts writes until recovery puts a fresh log in place,
// and every state on the way reloads as the corpus.
func TestManifestDirSyncFailureKeepsOutputs(t *testing.T) {
	dir := t.TempDir()
	inj := NewErrInjector()
	s, corpus := boundCorpus(t, dir, Options{FaultInjection: inj})
	churn(t, corpus, 1)
	inj.Arm(syscall.EIO, FaultSyncDir)
	if err := s.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Checkpoint under a failing dir fsync = %v, want EIO", err)
	}
	if s.Health() == HealthHealthy {
		t.Fatal("the store still takes writes after its log went stale")
	}
	if _, err := corpus.Remove(3); !errors.Is(err, ErrWriteWedged) {
		t.Fatalf("write while the log is stale = %v, want ErrWriteWedged", err)
	}
	if got := reloadDump(t, dir, Options{ReadOnly: true}); got != corpus.CanonicalDump() {
		t.Fatal("the checkpoint with no log after it does not reload as the corpus")
	}
	inj.Clear()
	if err := s.TryRecoverWrites(); err != nil {
		t.Fatalf("TryRecoverWrites: %v", err)
	}
	if _, err := corpus.Remove(3); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	s.Close()
	if got := reloadDump(t, dir, Options{}); got != corpus.CanonicalDump() {
		t.Fatal("the recovered store does not reload as the corpus")
	}
}

// TestLingeringVictimStaysSentenced: a crash between a checkpoint's
// rename and the removal of what it superseded leaves the old
// checkpoint and its log beside the new ones. The next Open must read
// the newest generation, remove the others, and never bring the old
// image back — here the old checkpoint still holds recipes the corpus
// has since deleted.
func TestLingeringVictimStaysSentenced(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	oldCkpt := checkpointPrefix + strconv.FormatUint(corpus.Version(), 10)
	saved := map[string][]byte{}
	for _, name := range []string{oldCkpt, logPrefix + "1"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		saved[name] = data
	}
	for id := 0; id < 10; id++ {
		if _, err := corpus.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for name, data := range saved { // the removals the crash cut short
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		if got := reloadDump(t, dir, Options{}); got != corpus.CanonicalDump() {
			t.Fatalf("round %d: the superseded checkpoint came back", round)
		}
		for _, name := range dirNames(t, dir) {
			if _, ok := saved[name]; ok {
				t.Fatalf("round %d: Open left the superseded %s in place", round, name)
			}
		}
	}
}

// TestPartialCompactionPreservesTombstones: a delete lives only in the
// log until a checkpoint folds it in. A checkpoint interrupted before
// its rename must leave that tombstone in force; the completed one must
// keep the recipe out.
func TestPartialCompactionPreservesTombstones(t *testing.T) {
	dir := t.TempDir()
	inj := NewErrInjector()
	s, corpus := boundCorpus(t, dir, Options{FaultInjection: inj})
	if _, err := corpus.Remove(7); err != nil {
		t.Fatal(err)
	}
	inj.FailOp(1, syscall.EIO, true) // the checkpoint's write, torn
	if err := s.Checkpoint(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("interrupted checkpoint = %v, want EIO", err)
	}
	if s.Health() != HealthHealthy {
		t.Fatal("a checkpoint that failed before its rename shut writes")
	}
	want := corpus.CanonicalDump()
	if got := reloadDump(t, dir, Options{ReadOnly: true}); got != want {
		t.Fatal("the tombstone did not survive the interrupted checkpoint")
	}
	inj.Clear()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := reloadDump(t, dir, Options{}); got != want {
		t.Fatal("the completed checkpoint brought the deleted recipe back")
	}
}

// TestBackgroundCompactorStress runs checkpoints — the background
// checkpointer on every poll, and explicit ones in a loop — against
// concurrent writers (run it under -race). Writers insert recipes and
// delete some of their own, so any write a checkpoint drops shows up
// on reload as a missing or revived slot: the reload must equal the
// corpus. A checkpoint that imaged the corpus under a read lock instead
// of the write token would drop the group storage had acknowledged but
// the corpus had not yet applied.
func TestBackgroundCompactorStress(t *testing.T) {
	defer func(floor int64) { checkpointDueFloor = floor }(checkpointDueFloor)
	checkpointDueFloor = 0
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{SyncEveryPut: true})
	r0 := corpus.Recipe(0)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := 0; !stop.Load(); i++ {
				id, _, _, err := corpus.Upsert(-1, fmt.Sprintf("writer %d dish %d", w, i), recipedb.Region(w), recipedb.AllRecipes, r0.Ingredients)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mine = append(mine, id)
				if i%4 == 3 {
					if _, err := corpus.Remove(mine[len(mine)-3]); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for i := 0; i < 150; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	// The window, forced: a checkpoint starts after the log has
	// acknowledged a group and before the corpus applies it. It must wait
	// for the group rather than image the corpus without it.
	corpus.SetBackend(&checkpointMidGroup{s})
	s.Bind(corpus)
	if _, err := corpus.Remove(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reloadDump(t, dir, Options{}); got != corpus.CanonicalDump() {
		t.Fatal("a write went missing across the checkpoints")
	}
}

// checkpointMidGroup is a backend that, once the store has acknowledged
// a group, starts a checkpoint and gives it time to finish before the
// corpus applies the group.
type checkpointMidGroup struct{ s *Store }

func (b *checkpointMidGroup) WriteBatch(keys []string, values [][]byte, tombstones []bool) []error {
	errs := b.s.WriteBatch(keys, values, tombstones)
	done := make(chan error, 1)
	go func() { done <- b.s.Checkpoint() }()
	select {
	case <-done:
	case <-time.After(200 * time.Millisecond):
	}
	return errs
}

// TestGarbageRatioTriggersCompaction: the background checkpointer
// starts a checkpoint once the log (deadBytes) is as large as the
// checkpoint (liveBytes), and not before.
func TestGarbageRatioTriggersCompaction(t *testing.T) {
	defer func(floor int64) { checkpointDueFloor = floor }(checkpointDueFloor)
	checkpointDueFloor = 0
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	defer s.Close()
	r0 := corpus.Recipe(0)
	write := func(i int) {
		if _, _, _, err := corpus.Upsert(5, fmt.Sprintf("rewrite %d", i), recipedb.Italy, recipedb.AllRecipes, r0.Ingredients); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for ; ; i++ {
		st := s.Stats()
		if st.Checkpoints != 1 {
			t.Fatalf("a checkpoint started at %+v, before the log reached the checkpoint's size", st)
		}
		if 2*st.LogBytes >= st.CheckpointBytes {
			break
		}
		write(i)
	}
	time.Sleep(3 * checkpointPoll)
	if st := s.Stats(); st.Checkpoints != 1 {
		t.Fatalf("a checkpoint started at half the checkpoint's size: %+v", st)
	}
	for st := s.Stats(); st.LogBytes < st.CheckpointBytes && st.Checkpoints == 1; st = s.Stats() {
		write(i)
		i++
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Checkpoints < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint once the log outgrew the checkpoint: %+v", s.Stats())
		}
		time.Sleep(checkpointPoll / 5)
	}
	if st := s.Stats(); st.CheckpointVersion != corpus.Version() || st.LogBytes != 0 {
		t.Fatalf("after the background checkpoint: %+v, want version %d and an empty log", st, corpus.Version())
	}
}

// TestPerSegmentDeadMatchesReplay: the byte counts /api/health reports
// (liveBytes the checkpoint, deadBytes the log) are the files' sizes on
// disk once the store is closed, and a reopen finds the same counts.
func TestPerSegmentDeadMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	churn(t, corpus, 2)
	before := s.Stats()
	s.Close()
	size := func(name string) int64 {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	ckpt := checkpointPrefix + strconv.FormatUint(before.CheckpointVersion, 10)
	if size(ckpt) != before.CheckpointBytes || size(logPrefix+"1") != before.LogBytes {
		t.Errorf("files hold %d + %d bytes, stats say %d + %d",
			size(ckpt), size(logPrefix+"1"), before.CheckpointBytes, before.LogBytes)
	}
	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after := s2.Stats()
	before.Checkpoints = after.Checkpoints // counts this process's checkpoints only
	if after != before {
		t.Errorf("reopen finds %+v, the store had %+v", after, before)
	}
}

// TestOpenRefusesSegmentFormat: a directory of the segment-and-manifest
// engine fails Open with a *FormatError naming that format, read-write
// and read-only, and nothing in it changes.
func TestOpenRefusesSegmentFormat(t *testing.T) {
	for _, name := range []string{"00000001.seg", "MANIFEST", "00000002.seg.tmp"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, ro := range []bool{false, true} {
			_, err := Open(dir, Options{ReadOnly: ro})
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Format != segmentFormat || fe.File != name {
				t.Fatalf("Open over %s (read-only %v) = %v, want a FormatError naming it", name, ro, err)
			}
		}
		if got := dirNames(t, dir); len(got) != 1 || got[0] != name {
			t.Fatalf("refusing %s changed the directory: %v", name, got)
		}
	}
}

// hashDir hashes every file's name, size and contents under dir.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestReadOnlyOpenWritesNothing: from every state the crash sweep's
// script leaves behind — torn tails, temp files, superseded checkpoints
// and stale logs included — a read-only Open, LoadCorpus and Close
// leave the directory bit for bit as they found it.
func TestReadOnlyOpenWritesNothing(t *testing.T) {
	catalog := testCatalog(t)
	sw := &sweep{seed: *sweepSeed, mode: "full"}
	probe := newBudget()
	crashClose(sw.run(t, t.TempDir(), probe, 1<<30, -1))
	for crashAfter := 0; crashAfter <= len(probe.ops); crashAfter++ {
		dir := t.TempDir()
		crashClose(sw.run(t, dir, newBudget(), crashAfter, -1))
		before := hashDir(t, dir)
		s, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("crash after %d ops: read-only Open: %v", crashAfter, err)
		}
		if _, err := LoadCorpus(s, catalog); err != nil {
			t.Fatalf("crash after %d ops: LoadCorpus: %v", crashAfter, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("crash after %d ops: Close: %v", crashAfter, err)
		}
		if after := hashDir(t, dir); after != before {
			t.Fatalf("crash after %d ops: the read-only open changed the directory", crashAfter)
		}
	}
}
