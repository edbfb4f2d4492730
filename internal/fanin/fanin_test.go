package fanin

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// item is what the tests queue: a pointer, so a run by another
// goroutine can mark it.
type item struct {
	call, seq int
	runs      atomic.Int32
}

// waitQueued blocks until n items sit in q's pending group.
func waitQueued(q *Queue[*item], n int) {
	for {
		q.mu.Lock()
		got := 0
		if q.pending != nil {
			got = len(q.pending.items)
		}
		q.mu.Unlock()
		if got == n {
			return
		}
		runtime.Gosched()
	}
}

// TestParkedCallsShareOneRun: callers that queue while the token is held
// are run together, once, each call's items adjacent and in order.
func TestParkedCallsShareOneRun(t *testing.T) {
	q := New[*item]()
	var runs [][]*item
	run := func(g []*item) { runs = append(runs, append([]*item(nil), g...)) } // token-serialized

	q.Lock()
	const calls = 5
	total := 0
	var wg sync.WaitGroup
	for c := 0; c < calls; c++ {
		items := make([]*item, c+2) // distinct sizes, all multi-item
		for i := range items {
			items[i] = &item{call: c, seq: i}
		}
		total += len(items)
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Do(items, run)
		}()
	}
	waitQueued(q, total)
	q.Unlock()
	wg.Wait()

	if len(runs) != 1 {
		t.Fatalf("%d runs, want 1 covering every parked call", len(runs))
	}
	g := runs[0]
	if len(g) != total {
		t.Fatalf("run saw %d items, want %d", len(g), total)
	}
	seen := map[int]bool{}
	for i := 0; i < len(g); {
		c := g[i].call
		if seen[c] {
			t.Fatalf("call %d appears in two places: its items are not adjacent", c)
		}
		seen[c] = true
		for want := 0; want < c+2; want, i = want+1, i+1 {
			if i >= len(g) || g[i].call != c || g[i].seq != want {
				t.Fatalf("position %d: want call %d item %d, got %+v", i, c, want, g[i])
			}
		}
	}
	if len(seen) != calls {
		t.Fatalf("run covered %d calls, want %d", len(seen), calls)
	}
}

// TestStressEveryItemRunsOnce hammers one queue from many goroutines
// (run under -race): every item is run exactly once, before its Do
// returns, and no run overlaps another run or a Lock section.
func TestStressEveryItemRunsOnce(t *testing.T) {
	const (
		workers = 8
		perG    = 300
		lockers = 2
	)
	q := New[*item]()
	var inside atomic.Int32 // goroutines inside a run or a Lock section
	var groups, grouped atomic.Int64
	enter := func() {
		if n := inside.Add(1); n != 1 {
			t.Errorf("%d holders inside the token at once", n)
		}
	}
	run := func(g []*item) {
		enter()
		for _, it := range g {
			it.runs.Add(1)
		}
		groups.Add(1)
		grouped.Add(int64(len(g)))
		runtime.Gosched() // hold the token across a reschedule so callers pile up
		inside.Add(-1)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for c := 0; c < perG; c++ {
				items := make([]*item, 1+rng.Intn(4))
				for i := range items {
					items[i] = &item{call: c, seq: i}
				}
				q.Do(items, run)
				for _, it := range items {
					if n := it.runs.Load(); n != 1 {
						t.Errorf("worker %d call %d: item run %d times by the time Do returned", w, c, n)
						return
					}
				}
			}
		}(w)
	}
	for l := 0; l < lockers; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q.Lock()
				enter()
				runtime.Gosched()
				inside.Add(-1)
				q.Unlock()
			}
		}()
	}
	wg.Wait()
	if groups.Load() >= grouped.Load() {
		t.Errorf("%d runs for %d items: nothing was ever grouped", groups.Load(), grouped.Load())
	}
}

// TestLoneCallerRunsItsOwnSlice: without company Do is a direct call on
// the caller's slice and allocates nothing.
func TestLoneCallerRunsItsOwnSlice(t *testing.T) {
	q := New[*item]()
	items := []*item{{seq: 0}, {seq: 1}}
	var got []*item
	run := func(g []*item) { got = g }
	allocs := testing.AllocsPerRun(1000, func() { q.Do(items, run) })
	if allocs != 0 {
		t.Errorf("uncontended Do allocates %.1f times per call, want 0", allocs)
	}
	if len(got) != len(items) || &got[0] != &items[0] {
		t.Error("uncontended Do did not hand run the caller's own slice")
	}
}
