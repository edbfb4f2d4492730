package storage

import (
	"os"
	"sync"
	"sync/atomic"
)

// Runtime I/O error injection. The crash harness in fault_test.go
// simulates power loss: after N operations everything fails forever and
// the process is assumed dead. ErrInjector simulates the other failure
// family — EIO, ENOSPC, EDQUOT, short writes — where the operation
// fails but the process keeps running and must degrade gracefully
// instead of corrupting itself. It has two modes:
//
//   - FailOp(n, err, short): exactly the nth filesystem operation fails
//     with err (optionally tearing a write); every other operation
//     succeeds. TestIOFaultMatrix sweeps n over the whole write/rotate/
//     compact/manifest sequence.
//   - Arm(err, ops...): every matching operation fails with err until
//     Clear — a disk that stays full. The server's injected-ENOSPC soak
//     phase and the degradation tests use this.
//
// An injector is handed to Open via Options.FaultInjection; the store
// then routes the active-segment file operations and the compaction/
// manifest fsOps through it. Wrapped files expose their underlying
// *os.File (see osFile), so preallocation, fdatasync and truncation
// keep working while the injector is idle.

// FaultOp names one injectable filesystem operation class.
type FaultOp uint8

const (
	// FaultCreate covers segment/manifest file creation.
	FaultCreate FaultOp = iota
	// FaultWrite covers WriteAt on segment and manifest files.
	FaultWrite
	// FaultSync covers fsync/fdatasync of segment and manifest files.
	FaultSync
	// FaultRename covers the manifest and compaction-output renames.
	FaultRename
	// FaultRemove covers segment unlinks.
	FaultRemove
	// FaultSyncDir covers directory fsyncs.
	FaultSyncDir
	numFaultOps
)

var faultOpNames = [numFaultOps]string{"create", "write", "sync", "rename", "remove", "syncdir"}

// String names the operation class.
func (op FaultOp) String() string {
	if int(op) < len(faultOpNames) {
		return faultOpNames[op]
	}
	return "unknown"
}

// ErrInjector injects filesystem errors into a live store. Safe for
// concurrent use; the zero value injects nothing and only counts.
type ErrInjector struct {
	mu sync.Mutex
	// seq counts operations attempted since the last FailOp/Reset, so a
	// dry run sizes the fault matrix.
	seq int
	// One-shot schedule: operation number failAt fails with failErr.
	failAt  int
	failErr error
	failOp  FaultOp // recorded when the shot fires, for diagnostics
	tear    bool    // the failing write persists half its bytes first
	// Persistent fault: matching ops fail with armed until Clear.
	armed    error
	armedOps [numFaultOps]bool

	injected atomic.Uint64
}

// NewErrInjector returns an idle injector (counts ops, fails none).
func NewErrInjector() *ErrInjector {
	return &ErrInjector{failAt: -1}
}

// FailOp schedules exactly the nth operation (0-based, counted from
// this call) to fail with err; short additionally tears the write,
// persisting half its bytes. Every other operation succeeds.
func (i *ErrInjector) FailOp(n int, err error, short bool) {
	i.mu.Lock()
	i.seq = 0
	i.failAt, i.failErr, i.tear = n, err, short
	i.mu.Unlock()
}

// Arm makes every matching operation fail with err until Clear. With
// no ops listed, every operation class fails.
func (i *ErrInjector) Arm(err error, ops ...FaultOp) {
	i.mu.Lock()
	if len(ops) == 0 {
		for o := range i.armedOps {
			i.armedOps[o] = true
		}
	} else {
		i.armedOps = [numFaultOps]bool{}
		for _, o := range ops {
			i.armedOps[o] = true
		}
	}
	i.armed = err
	i.mu.Unlock()
}

// Clear disables both the one-shot schedule and the armed fault.
func (i *ErrInjector) Clear() {
	i.mu.Lock()
	i.failAt, i.failErr, i.tear = -1, nil, false
	i.armed = nil
	i.armedOps = [numFaultOps]bool{}
	i.mu.Unlock()
}

// Ops reports operations counted since the last FailOp (dry-run matrix
// sizing).
func (i *ErrInjector) Ops() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.seq
}

// Injected reports how many operations failed by injection.
func (i *ErrInjector) Injected() uint64 { return i.injected.Load() }

// check classifies one operation: a nil error means proceed; tear is
// only ever true for FaultWrite.
func (i *ErrInjector) check(op FaultOp) (err error, tear bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := i.seq
	i.seq++
	if i.armed != nil && i.armedOps[op] {
		i.injected.Add(1)
		return i.armed, false
	}
	if i.failAt >= 0 && n == i.failAt {
		i.injected.Add(1)
		i.failOp = op
		return i.failErr, op == FaultWrite && i.tear
	}
	return nil, false
}

// errFile wraps an *os.File, routing writes and syncs through the
// injector. Reads and closes never fail: I/O errors on the read path
// are a different failure domain (scrub/quarantine handle latent
// corruption; see scrub.go).
type errFile struct {
	f *os.File
	i *ErrInjector
}

func (e *errFile) ReadAt(p []byte, off int64) (int, error) { return e.f.ReadAt(p, off) }

func (e *errFile) WriteAt(p []byte, off int64) (int, error) {
	if err, tear := e.i.check(FaultWrite); err != nil {
		if tear {
			n, _ := e.f.WriteAt(p[:len(p)/2], off)
			return n, err
		}
		return 0, err
	}
	return e.f.WriteAt(p, off)
}

func (e *errFile) Sync() error {
	if err, _ := e.i.check(FaultSync); err != nil {
		return err
	}
	return e.f.Sync()
}

func (e *errFile) Close() error { return e.f.Close() }

// underlyingFile exposes the wrapped descriptor so preallocation,
// fdatasync and truncation still reach the real file.
func (e *errFile) underlyingFile() *os.File { return e.f }

// fileUnwrapper is implemented by seam wrappers that are still backed
// by a real descriptor. The crash harness's faultFile deliberately does
// NOT implement it: a crashed process gets no further use of the fd.
type fileUnwrapper interface{ underlyingFile() *os.File }

// osFile unwraps a segfile to its *os.File, or nil for pure test seams.
func osFile(f segfile) *os.File {
	switch v := f.(type) {
	case *os.File:
		return v
	case fileUnwrapper:
		return v.underlyingFile()
	}
	return nil
}

// wrapFile routes a segment file's writes through the injector.
func (i *ErrInjector) wrapFile(f *os.File) segfile {
	return &errFile{f: f, i: i}
}

// wrapFS routes the compaction/manifest filesystem seam through the
// injector.
func (i *ErrInjector) wrapFS(real fsOps) fsOps {
	return fsOps{
		create: func(path string) (segfile, error) {
			if err, _ := i.check(FaultCreate); err != nil {
				return nil, err
			}
			f, err := real.create(path)
			if err != nil {
				return nil, err
			}
			if of, ok := f.(*os.File); ok {
				return i.wrapFile(of), nil
			}
			return f, nil
		},
		rename: func(oldpath, newpath string) error {
			if err, _ := i.check(FaultRename); err != nil {
				return err
			}
			return real.rename(oldpath, newpath)
		},
		remove: func(path string) error {
			if err, _ := i.check(FaultRemove); err != nil {
				return err
			}
			return real.remove(path)
		},
		syncDir: func(dir string) error {
			if err, _ := i.check(FaultSyncDir); err != nil {
				return err
			}
			return real.syncDir(dir)
		},
	}
}
