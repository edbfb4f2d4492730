// Package fanin is the repo's one leader/follower group-commit
// protocol: concurrent callers each hand in a few items, one of them —
// the leader — runs a function over everybody's items at once, and every
// caller returns only after the run that covered its items has finished.
// The storage engine groups log appends behind it (one WriteAt and one
// fsync per group); the recipe corpus groups mutations behind it (one
// backend batch, one write-lock section, one version publication).
//
// Token. A one-slot channel; whoever sends into it is the only goroutine
// running groups until it takes the slot back. Lock/Unlock are the same
// send and receive, so an exclusive section (Sync, Close, a rotation)
// never overlaps a run and needs no second mutex.
//
// Detach. A caller that finds the token taken appends its items to the
// pending group, then waits for that group's done channel while also
// racing for the token: the leader in flight may have detached its group
// before these items joined, and then nobody else is left to run them.
// The token holder swaps the pending group out whole, so a group runs
// exactly once and the items of one call stay adjacent and in order.
//
// Yield. A leader that took the token uncontended would never see
// company: with few Ps, the writers its predecessor just woke are
// runnable but have not run yet (a blocking fsync does not reliably hand
// the P over), so one goroutine keeps the token and every group is a
// single caller. The leader therefore calls runtime.Gosched once before
// detaching — but only when the previous group was contended, because a
// yield behind CPU-bound goroutines can cost a scheduler quantum, which
// a lone writer should never pay.
package fanin

import (
	"runtime"
	"sync"
)

// group is the items of the calls waiting for one run.
type group[T any] struct {
	items []T
	done  chan struct{} // closed once the items have been run
}

// Queue groups concurrent Do calls. T is normally a pointer: a follower's
// items are copied into the group, so results reach the caller only
// through what the items point at.
type Queue[T any] struct {
	tok     chan struct{}
	mu      sync.Mutex // guards pending
	pending *group[T]
	// crowded: the last group had company, so the next uncontended
	// leader yields once. Guarded by the token.
	crowded bool
}

// New returns an empty queue.
func New[T any]() *Queue[T] {
	return &Queue[T]{tok: make(chan struct{}, 1)}
}

// Lock takes the token: no run is in progress and none starts until
// Unlock.
func (q *Queue[T]) Lock() { q.tok <- struct{}{} }

// Unlock returns the token taken by Lock.
func (q *Queue[T]) Unlock() { <-q.tok }

// detach takes the pending group, if any. Caller holds the token.
func (q *Queue[T]) detach() *group[T] {
	q.mu.Lock()
	g := q.pending
	q.pending = nil
	q.mu.Unlock()
	return g
}

// Do returns once run has been called, by this goroutine or another, on
// a slice holding items adjacent and in order, and that call has
// returned. Runs never overlap each other or a Lock section. A caller
// with no company gets run(items) on its own slice, with no allocation;
// otherwise the slice is the queue's and valid only during run. Every Do
// on one queue must pass the same function: the leader runs other
// callers' items with its own.
func (q *Queue[T]) Do(items []T, run func(group []T)) {
	select {
	case q.tok <- struct{}{}:
		if q.crowded {
			runtime.Gosched()
		}
		g := q.detach()
		q.crowded = g != nil
		if g == nil {
			run(items)
		} else {
			run(append(g.items, items...))
			close(g.done)
		}
		<-q.tok
		return
	default:
	}

	q.mu.Lock()
	g := q.pending
	if g == nil {
		g = &group[T]{done: make(chan struct{})}
		q.pending = g
	}
	g.items = append(g.items, items...)
	q.mu.Unlock()

	select {
	case q.tok <- struct{}{}:
		// Usually the pending group is still g; if another leader took g
		// already, this runs its successor, or finds nothing to run.
		q.crowded = true
		if next := q.detach(); next != nil {
			run(next.items)
			close(next.done)
		}
		<-q.tok
		<-g.done
	case <-g.done:
	}
}
