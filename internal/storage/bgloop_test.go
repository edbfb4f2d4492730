package storage

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestBgLoopLifecycle pins the protocol the compactor, the scrubber and
// the write probe share: a second start is a no-op, stop returns only
// after the pass in flight has finished, stop is idempotent, and a loop
// whose store was frozen without Close exits at its next tick.
func TestBgLoopLifecycle(t *testing.T) {
	var l bgLoop
	var closed atomic.Bool
	var inPass, passes atomic.Int32
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	pass := func() {
		if inPass.Add(1) != 1 {
			t.Error("two passes ran at once: a second start launched a second goroutine")
		}
		passes.Add(1)
		select {
		case entered <- struct{}{}:
			<-release // the first pass parks until the test lets go
		default:
		}
		inPass.Add(-1)
	}
	l.start(time.Millisecond, &closed, pass)
	l.start(time.Millisecond, &closed, pass)
	if !l.running() {
		t.Fatal("running() = false after start")
	}
	<-entered

	stopped := make(chan struct{})
	go func() { l.stop(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("stop returned while a pass was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-stopped
	if l.running() {
		t.Error("running() = true after stop")
	}
	n := passes.Load()
	l.stop() // idempotent
	time.Sleep(5 * time.Millisecond)
	if passes.Load() != n {
		t.Error("passes kept running after stop")
	}

	// Restartable, and a tick that finds closed set ends the goroutine:
	// stop then has nothing in flight to wait for.
	closed.Store(true)
	l.start(time.Millisecond, &closed, pass)
	time.Sleep(5 * time.Millisecond)
	l.stop()
	if passes.Load() != n {
		t.Error("a pass ran on a closed store")
	}
}
