package query

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestRunContextCanceledBeforeScan asserts the deadline-propagation
// contract at its boundary: a context that is already dead when
// execution starts aborts before visiting a single recipe and
// surfaces the structured ErrCanceled (still distinguishable as a
// deadline vs an explicit cancel via errors.Is).
func TestRunContextCanceledBeforeScan(t *testing.T) {
	e, _ := newMutableEngine(t)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunContext(ctx, "SELECT count(*) FROM recipes")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v should wrap context.Canceled", err)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, err = e.RunContext(dctx, "SELECT count(*) FROM recipes WHERE size > 1")
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// TestCanceledExecutionIsNeverCached asserts that an aborted run
// leaves nothing behind: the same statement re-run with a live context
// returns the full answer, the one a fresh engine gives.
func TestCanceledExecutionIsNeverCached(t *testing.T) {
	e, store := newMutableEngine(t)
	const stmt = "SELECT region, count(*) FROM recipes GROUP BY region"

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunContext(ctx, stmt); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}

	res, err := e.RunContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewEngine(store, e.analyzer).Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || !bytes.Equal(resultFingerprint(t, res), resultFingerprint(t, want)) {
		t.Fatalf("re-run after cancellation:\n got %s\nwant %s",
			resultFingerprint(t, res), resultFingerprint(t, want))
	}
}

// TestCancelMidScanReturnsPromptlyAndLeaksNothing races a cancel
// against in-flight executions and asserts (a) every run returns
// quickly once the context dies — the scan's periodic check fires
// instead of running the statement to completion — and (b) the
// goroutine count settles back to its starting point: execution
// spawns nothing, so a canceled query cannot leak workers.
func TestCancelMidScanReturnsPromptlyAndLeaksNothing(t *testing.T) {
	e, _ := newMutableEngine(t) // every run scans
	before := runtime.NumGoroutine()

	for round := 0; round < 8; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			// The score aggregate is the most expensive per-row path.
			_, err := e.RunContext(ctx, "SELECT avg(score), max(score) FROM recipes WHERE size > 0")
			done <- err
		}()
		// Let the scan get going, then pull the plug.
		time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		cancel()
		select {
		case err := <-done:
			// Either the run finished before the cancel landed (fast
			// corpus) or it aborted with the structured error; both
			// are correct. What is forbidden is a hang or a bare
			// context error without the ErrCanceled wrapper.
			if err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("round %d: err = %v, want nil or ErrCanceled", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: canceled query did not return within 5s", round)
		}
	}

	// The goroutine count must settle back: canceled queries leak no
	// workers. Retry briefly — unrelated runtime goroutines may need a
	// moment to exit.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after canceled queries", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
