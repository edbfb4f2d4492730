package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"

	"culinary/internal/recipedb"
)

// Runtime I/O fault matrix. Unlike the crash sweep (fault_test.go),
// where the process dies at the fault, these tests inject exactly one
// failing filesystem operation into a live store and assert the
// degradation contract:
//
//   - every acknowledged write stays on disk: a reader that opens the
//     directory read-only while the owner is degraded, and the owner's
//     own reopen, reload a corpus at a version no lower than the last
//     acknowledged write, equal to the corpus at that version;
//   - a failed write is never half there: unacknowledged records are
//     either absent or replay whole (the group is one frame);
//   - after a failed fsync the store never silently retries it — Sync
//     fails until TryRecoverWrites writes a fresh log.

var errInjectedIO = errors.New("injected io error")

// matrixPoint plays the crash sweep's script against a store whose nth
// filesystem operation (counted from the script's start) fails, then
// checks the contract: reads while degraded, recovery, a write after
// it, clean close, and the reload.
func matrixPoint(t *testing.T, n int, injErr error, short bool) (degraded bool) {
	t.Helper()
	dir := t.TempDir()
	inj := NewErrInjector()
	s, corpus := boundCorpus(t, dir, Options{SyncEveryPut: true, FaultInjection: inj})
	defer s.Close()

	sw := &sweep{seed: *sweepSeed, mode: "full"}
	inj.FailOp(n, injErr, short)
	sw.play(t, s, corpus)
	if inj.Injected() == 0 {
		t.Fatalf("fault point %d never fired", n)
	}
	inj.Clear()
	// Readers of the directory see the acknowledged state even while the
	// owner is degraded.
	if msg := sw.checkReload(t, dir, Options{ReadOnly: true}, sw.acked); msg != "" {
		t.Fatalf("read-only reload beside the owner: %s", msg)
	}
	if s.Health() != HealthHealthy {
		degraded = true
		// The fault is gone, but a degraded store must not silently
		// resume — in particular it must never re-fsync a file whose
		// fsync failed (the kernel may have dropped the dirty pages).
		if err := s.Sync(); err == nil {
			t.Fatalf("Sync succeeded while degraded: a failed fsync was silently retried")
		}
		if _, err := corpus.Remove(0); !errors.Is(err, ErrWriteWedged) {
			t.Fatalf("degraded write error = %v, want ErrWriteWedged", err)
		}
		if err := s.TryRecoverWrites(); err != nil {
			t.Fatalf("TryRecoverWrites after clearing fault: %v", err)
		}
		if got := s.Health(); got != HealthHealthy {
			t.Fatalf("Health after recovery = %v, want healthy", got)
		}
	}
	// Post-recovery (or never-degraded) writes must work and be durable.
	sw.apply(t, s, corpus, func(c *recipedb.Store) { c.Remove(0) })
	if !corpus.Recipe(0).Deleted {
		t.Fatal("post-recovery write failed")
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("post-recovery Sync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
	if msg := sw.checkReload(t, dir, Options{}, sw.acked); msg != "" {
		t.Fatalf("reopen: %s", msg)
	}
	return degraded
}

// TestIOFaultMatrix sweeps one injected error over every filesystem
// operation of the crash sweep's script (write groups and two
// checkpoints). A dry run with an unreachable fault point counts the
// operations; each matrix point then replays the identical
// (deterministic) script with exactly that operation failing.
func TestIOFaultMatrix(t *testing.T) {
	inj := NewErrInjector()
	s, corpus := boundCorpus(t, t.TempDir(), Options{SyncEveryPut: true, FaultInjection: inj})
	inj.FailOp(1<<30, nil, false) // unreachable: count only
	sw := &sweep{seed: *sweepSeed, mode: "full"}
	sw.play(t, s, corpus)
	total := inj.Ops()
	s.Close()
	if total < 96 {
		t.Fatalf("dry run counted only %d fs operations; script too small for a meaningful matrix", total)
	}

	sweeps := []struct {
		name  string
		err   error
		short bool
	}{
		{"eio", errInjectedIO, false},
		{"enospc-torn", syscall.ENOSPC, true},
	}
	counters := struct {
		Points     int `json:"points"`
		Degraded   int `json:"degraded"`
		Recovered  int `json:"recovered"`
		Reopened   int `json:"reopened"`
		FsOpsSwept int `json:"fs_ops_swept"`
	}{FsOpsSwept: total}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			for n := 0; n < total; n++ {
				t.Run(fmt.Sprintf("op%03d", n), func(t *testing.T) {
					degraded := matrixPoint(t, n, sw.err, sw.short)
					counters.Points++
					counters.Reopened++
					if degraded {
						counters.Degraded++
						counters.Recovered++
					}
				})
			}
		})
	}
	if out := os.Getenv("FAULT_MATRIX_OUT"); out != "" && !t.Failed() {
		b, _ := json.MarshalIndent(counters, "", "  ")
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Logf("writing fault matrix artifact: %v", err)
		}
	}
}

// TestFailedFsyncNeverRetried pins the fsyncgate rule in isolation:
// after an fsync fails, the store must not fsync that file again —
// not via Sync, not at Close. Durability comes back only through a
// fresh log.
func TestFailedFsyncNeverRetried(t *testing.T) {
	dir := t.TempDir()
	inj := NewErrInjector()
	s, err := Open(dir, Options{SyncEveryPut: true, FaultInjection: inj})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.Put("durable", []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	inj.Arm(errInjectedIO, FaultSync)
	if err := s.Put("victim", []byte("v2")); err == nil {
		t.Fatal("Put with failing fsync succeeded")
	}
	if got := s.Health(); got != HealthReadOnly {
		t.Fatalf("Health = %v, want readOnly", got)
	}
	poisoned := s.log
	if !s.logSyncFailed {
		t.Fatal("the log is not marked as failed to fsync")
	}
	inj.Clear()

	// The poisoned file's fsync must not be retried even though the
	// fault is gone: Sync refuses, and recovery writes a fresh log.
	if err := s.Sync(); !errors.Is(err, ErrWriteWedged) {
		t.Fatalf("Sync after a failed fsync = %v, want ErrWriteWedged", err)
	}
	if err := s.TryRecoverWrites(); err != nil {
		t.Fatalf("TryRecoverWrites: %v", err)
	}
	if s.log == poisoned || s.logSyncFailed {
		t.Fatal("recovery kept the log whose fsync failed")
	}
	if v, err := s.Get("durable"); err != nil || string(v) != "v1" {
		t.Fatalf("Get(durable) after recovery = %q, %v", v, err)
	}
	// Durability is live again on the fresh log.
	if err := s.Put("victim", []byte("v3")); err != nil {
		t.Fatalf("post-recovery Put: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("post-recovery Sync: %v", err)
	}
}

// TestDegradedServesReadsAndAutoRecovers is the ENOSPC soak in
// miniature: a persistently full disk degrades mutations to typed
// errors while reads keep serving, and the background probe restores
// the write path once space comes back — no operator action.
func TestDegradedServesReadsAndAutoRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := NewErrInjector()
	s, err := Open(dir, Options{
		SyncEveryPut:       true,
		FaultInjection:     inj,
		WriteProbeInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("seed-%d", i)
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
	}

	inj.Arm(syscall.ENOSPC, FaultCreate, FaultWrite, FaultSync)
	if err := s.Put("full", []byte("x")); err == nil {
		t.Fatal("Put on full disk succeeded")
	}
	if got := s.Health(); got != HealthReadOnly {
		t.Fatalf("Health = %v, want readOnly", got)
	}
	// Mutations fail typed; the probe keeps retrying against the armed
	// fault and must not flap the store healthy.
	time.Sleep(20 * time.Millisecond)
	if err := s.Put("still-full", []byte("x")); !errors.Is(err, ErrWriteWedged) {
		t.Fatalf("degraded Put error = %v, want ErrWriteWedged", err)
	}
	// Reads serve throughout.
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("seed-%d", i)
		if v, err := s.Get(k); err != nil || string(v) != k {
			t.Fatalf("degraded Get(%q) = (%q, %v)", k, v, err)
		}
	}

	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for s.Health() != HealthHealthy {
		if time.Now().After(deadline) {
			t.Fatal("write probe did not restore the store after the fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Put("resumed", []byte("y")); err != nil {
		t.Fatalf("Put after auto-recovery: %v", err)
	}
	st := s.HealthStats()
	if st.Degradations == 0 || st.Recoveries == 0 {
		t.Fatalf("HealthStats = %+v, want degradations and recoveries counted", st)
	}
}

// TestRecoverySalvagesAckedUnsyncedTail covers the !SyncEveryPut
// window: records acknowledged but not yet fsynced live only in the
// log's unsynced tail. Recovery must copy them into the fresh log, or
// acknowledged writes would be lost.
func TestRecoverySalvagesAckedUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	inj := NewErrInjector()
	s, err := Open(dir, Options{FaultInjection: inj}) // SyncEveryPut off
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	// Acked but unsynced: no Sync call.
	want := make(map[string]string)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("tail-%d", i)
		v := fmt.Sprintf("unsynced-value-%d", i)
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = v
	}
	if err := s.Delete("tail-0"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "tail-0")

	inj.Arm(errInjectedIO, FaultWrite)
	if err := s.Put("boom", []byte("x")); err == nil {
		t.Fatal("Put with failing write succeeded")
	}
	inj.Clear()
	if err := s.TryRecoverWrites(); err != nil {
		t.Fatalf("TryRecoverWrites: %v", err)
	}
	if s.HealthStats().SalvagedRecords == 0 {
		t.Fatal("recovery salvaged no records; the acked unsynced tail was dropped")
	}
	for k, v := range want {
		if got, err := s.Get(k); err != nil || string(got) != v {
			t.Fatalf("post-salvage Get(%q) = (%q, %v), want %q", k, got, err, v)
		}
	}
	if _, err := s.Get("tail-0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-salvage Get(tail-0) err = %v, want ErrNotFound (tombstone lost in salvage)", err)
	}
	// The salvaged copies are now durable: survive a clean close/reopen.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	for k, v := range want {
		if got, err := s2.Get(k); err != nil || string(got) != v {
			t.Fatalf("reopened Get(%q) = (%q, %v), want %q", k, got, err, v)
		}
	}
	if _, err := s2.Get("tail-0"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reopened Get(tail-0) err = %v, want ErrNotFound", err)
	}
}
