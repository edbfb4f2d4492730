package storage

import (
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// The filesystem seam. Every file operation of the write path and of
// checkpoints goes through fsOps and segfile, so an error injector
// (Options.FaultInjection) or the crash sweep's budget (fault_test.go)
// can fail any one of them.

// segfile is the seam for the log and checkpoint files.
type segfile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// fsOps are the directory operations of the seam.
type fsOps struct {
	create  func(path string) (segfile, error) // create or truncate, read-write
	open    func(path string) (segfile, error) // an existing file, read-write
	rename  func(oldpath, newpath string) error
	remove  func(path string) error
	syncDir func(dir string) error
}

// osFS is the production seam.
func osFS() fsOps {
	return fsOps{
		create: func(path string) (segfile, error) {
			return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		},
		open:   func(path string) (segfile, error) { return os.OpenFile(path, os.O_RDWR, 0) },
		rename: os.Rename,
		remove: os.Remove,
		syncDir: func(dir string) error {
			d, err := os.Open(dir)
			if err != nil {
				return err
			}
			defer d.Close()
			return d.Sync()
		},
	}
}

// syncData flushes a log's appended bytes: fdatasync for a real file
// (with the log preallocated it skips the metadata journal), after the
// injector has seen the operation; Sync for the crash sweep's files.
func syncData(f segfile) error {
	if ef, ok := f.(*errFile); ok {
		if err, _ := ef.i.check(FaultSync); err != nil {
			return err
		}
	}
	if of := osFile(f); of != nil {
		return datasync(of)
	}
	return f.Sync()
}

// osFile unwraps a segfile to its *os.File, or nil for the crash
// sweep's files, whose process is dead.
func osFile(f segfile) *os.File {
	switch v := f.(type) {
	case *os.File:
		return v
	case *errFile:
		return v.f
	}
	return nil
}

// FaultOp names one injectable filesystem operation class.
type FaultOp uint8

const (
	FaultCreate  FaultOp = iota // creating a log or checkpoint file
	FaultWrite                  // WriteAt on one
	FaultSync                   // fsync or fdatasync of one
	FaultRename                 // the rename that puts one in place
	FaultRemove                 // unlinking a superseded one
	FaultSyncDir                // fsync of the directory
	numFaultOps
)

// ErrInjector injects filesystem errors into a live store — EIO,
// ENOSPC, EDQUOT, torn writes — where, unlike the crash sweep's power
// loss, the process keeps running and must degrade instead of
// corrupting itself. Safe for concurrent use.
type ErrInjector struct {
	mu  sync.Mutex
	seq int // operations attempted since the last FailOp
	// One-shot schedule (FailOp); failOp records what it hit.
	failAt  int
	failErr error
	failOp  FaultOp
	tear    bool
	// Persistent fault (Arm): matching operations fail until Clear.
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
// persisting half its bytes.
func (i *ErrInjector) FailOp(n int, err error, short bool) {
	i.mu.Lock()
	i.seq = 0
	i.failAt, i.failErr, i.tear = n, err, short
	i.mu.Unlock()
}

// Arm makes every matching operation (all, with none listed) fail with
// err until Clear: a disk that stays full.
func (i *ErrInjector) Arm(err error, ops ...FaultOp) {
	i.mu.Lock()
	i.armedOps = [numFaultOps]bool{}
	for o := range i.armedOps {
		i.armedOps[o] = len(ops) == 0
	}
	for _, o := range ops {
		i.armedOps[o] = true
	}
	i.armed = err
	i.mu.Unlock()
}

// Clear disables both the one-shot schedule and the armed fault.
func (i *ErrInjector) Clear() {
	i.mu.Lock()
	i.failAt, i.failErr, i.tear = -1, nil, false
	i.armed = nil
	i.mu.Unlock()
}

// Ops reports operations counted since the last FailOp.
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
	switch {
	case i.armed != nil && i.armedOps[op]:
		err = i.armed
	case n == i.failAt:
		err, tear, i.failOp = i.failErr, op == FaultWrite && i.tear, op
	default:
		return nil, false
	}
	i.injected.Add(1)
	return err, tear
}

// errFile wraps an *os.File, routing writes and syncs through the
// injector. Reads and closes never fail: latent corruption on the read
// path is the scrubber's domain (scrub.go).
type errFile struct {
	f *os.File
	i *ErrInjector
}

func (e *errFile) ReadAt(p []byte, off int64) (int, error) { return e.f.ReadAt(p, off) }
func (e *errFile) Close() error                            { return e.f.Close() }

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

// wrapFS routes the seam through the injector. Opening the existing
// log at boot is not an injectable operation; everything after it is.
func (i *ErrInjector) wrapFS(real fsOps) fsOps {
	wrap := func(f segfile, err error) (segfile, error) {
		if of, ok := f.(*os.File); ok && err == nil {
			return &errFile{f: of, i: i}, nil
		}
		return f, err
	}
	gate := func(op FaultOp, fn func(string) error) func(string) error {
		return func(path string) error {
			if err, _ := i.check(op); err != nil {
				return err
			}
			return fn(path)
		}
	}
	return fsOps{
		create: func(path string) (segfile, error) {
			if err, _ := i.check(FaultCreate); err != nil {
				return nil, err
			}
			return wrap(real.create(path))
		},
		open: func(path string) (segfile, error) { return wrap(real.open(path)) },
		rename: func(oldpath, newpath string) error {
			if err, _ := i.check(FaultRename); err != nil {
				return err
			}
			return real.rename(oldpath, newpath)
		},
		remove:  gate(FaultRemove, real.remove),
		syncDir: gate(FaultSyncDir, real.syncDir),
	}
}
