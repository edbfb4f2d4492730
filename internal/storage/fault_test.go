package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// Crash-injection harness. opBudget simulates power loss after exactly
// N filesystem operations: the N+1th fails — a failing write first
// tears, persisting only half its bytes — and every later operation
// fails too, so cleanup code cannot tidy the wreckage any more than a
// real crash would let it. The sweep in compactor_test.go runs a store
// through it from Open on.

// errInjectedCrash marks a fault-injected failure.
var errInjectedCrash = errors.New("injected crash")

// opBudget is the shared countdown of allowed filesystem operations.
// Besides the crash it can fail one operation with errInjectedIO and
// let the process go on: an I/O fault, not power loss.
type opBudget struct {
	mu        sync.Mutex
	remaining int
	failAt    int // the operation (counted from arm) that fails once; -1 none
	crashed   bool
	ops       []string // every operation attempted since arm, by kind
}

// newBudget returns a budget that never crashes until armed.
func newBudget() *opBudget { return &opBudget{remaining: math.MaxInt32, failAt: -1} }

// arm restarts the count: remaining operations succeed (but failAt),
// the next one crashes.
func (b *opBudget) arm(remaining, failAt int) {
	b.mu.Lock()
	b.remaining, b.failAt, b.ops = remaining, failAt, nil
	b.mu.Unlock()
}

// spend consumes one operation of the given kind and says how it ends.
func (b *opBudget) spend(kind string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.ops)
	b.ops = append(b.ops, kind)
	if b.crashed || b.remaining <= 0 {
		b.crashed = true
		return errInjectedCrash
	}
	b.remaining--
	if n == b.failAt {
		return errInjectedIO
	}
	return nil
}

// faultFile wraps an *os.File, failing (and, on a crash, tearing)
// writes and syncs as the budget says. Reads and closes always succeed:
// a crash loses buffered state, not the ability to read what was
// written or release a descriptor.
type faultFile struct {
	f *os.File
	b *opBudget
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) { return ff.f.ReadAt(p, off) }

func (ff *faultFile) WriteAt(p []byte, off int64) (int, error) {
	switch err := ff.b.spend("write"); err {
	case nil:
		return ff.f.WriteAt(p, off)
	case errInjectedCrash:
		// Torn write: half the bytes reach the file, then power dies.
		n, _ := ff.f.WriteAt(p[:len(p)/2], off)
		return n, err
	default:
		return 0, err
	}
}

func (ff *faultFile) Sync() error {
	if err := ff.b.spend("sync"); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// faultFS wraps the production fs operations with the budget. Files
// it creates or opens are faultFiles, which expose no *os.File: no
// preallocation, no truncation, plain Sync.
func faultFS(b *opBudget) fsOps {
	real := osFS()
	wrap := func(kind string, open func(string) (segfile, error)) func(string) (segfile, error) {
		return func(path string) (segfile, error) {
			if err := b.spend(kind + ":" + filepath.Base(path)); err != nil {
				return nil, err
			}
			f, err := open(path)
			if err != nil {
				return nil, err
			}
			return &faultFile{f: f.(*os.File), b: b}, nil
		}
	}
	gate := func(kind string, fn func(string) error) func(string) error {
		return func(path string) error {
			if err := b.spend(kind + ":" + filepath.Base(path)); err != nil {
				return err
			}
			return fn(path)
		}
	}
	return fsOps{
		create: wrap("create", real.create),
		open:   wrap("open", real.open),
		rename: func(oldpath, newpath string) error {
			if err := b.spend("rename:" + filepath.Base(oldpath)); err != nil {
				return err
			}
			return os.Rename(oldpath, newpath)
		},
		remove:  gate("remove", real.remove),
		syncDir: gate("syncdir", real.syncDir),
	}
}

// crashClose simulates the process dying: every descriptor closes with
// no trim, no final sync, no cleanup. Disk state is whatever the
// operations so far left behind.
func crashClose(s *Store) {
	s.ckpter.loop.stop()
	s.whealth.probe.stop()
	s.scrub.loop.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed.Store(true)
	s.closeFiles()
}
