package storage

import (
	"sync"
	"sync/atomic"
	"time"
)

// bgLoop is the lifecycle of one background goroutine of a Store — the
// checkpointer, the scrubber, the write-recovery probe: a ticker loop that
// is started at most once at a time and whose stop waits for the pass
// in flight.
type bgLoop struct {
	mu   sync.Mutex
	quit chan struct{}
	done chan struct{}
}

// start launches a goroutine that calls pass every interval until stop
// is called or a tick finds closed set. No-op if already running.
func (l *bgLoop) start(interval time.Duration, closed *atomic.Bool, pass func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.quit != nil {
		return
	}
	quit, done := make(chan struct{}), make(chan struct{})
	l.quit, l.done = quit, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				if closed.Load() {
					return
				}
				pass()
			}
		}
	}()
}

// stop signals the goroutine and returns once it has exited, so any
// in-flight pass has finished. Idempotent; Close calls it before it
// freezes the store.
func (l *bgLoop) stop() {
	l.mu.Lock()
	quit, done := l.quit, l.done
	l.quit, l.done = nil, nil
	l.mu.Unlock()
	if quit == nil {
		return
	}
	close(quit)
	<-done
}

// running reports whether start has been called without a stop since.
func (l *bgLoop) running() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quit != nil
}
