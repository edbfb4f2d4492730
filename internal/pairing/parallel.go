package pairing

import (
	"runtime"
	"sync"
	"sync/atomic"

	"culinary/internal/recipedb"
	"culinary/internal/stats"
)

// This file holds the parallel scoring entry points. Two determinism
// regimes coexist, both bit-identical to the serial code path:
//
//   - Index-addressed fan-out (ScoreCuisineParallel, the parallel
//     Contributions sweep): each work item writes its own slot and the
//     floating-point reduction runs sequentially in item order, so the
//     result does not depend on how many workers run or how they are
//     scheduled.
//
//   - Stream-addressed task fan-out (ForEachTask, as experiments.Fig4
//     and cmd/pairing use it): every task owns a stream that was split
//     off before any task ran — Split is a pure function of its parent
//     and consumes nothing — and writes its own slot, so the result is
//     bit-identical to running the tasks one after the other.

// forEachChunkParallel runs fn(i) for every i in [0, n) across workers
// goroutines that claim chunk-sized index ranges, in index order, from
// one atomic counter — the one worker-pool shape shared by analyzer
// construction and the scoring fan-outs. Workers claim chunks as they
// finish, so uneven per-index work balances without a static partition,
// and no goroutine has to be scheduled between two chunks to hand out
// the next one. fn must only write state owned by index i.
func forEachChunkParallel(n, workers, chunk int, fn func(i int)) {
	if workers > (n+chunk-1)/chunk {
		workers = (n + chunk - 1) / chunk
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for i, hi := lo, min(lo+chunk, n); i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}

// forEachIndexParallel is forEachChunkParallel with the scoring paths'
// default chunk size.
func forEachIndexParallel(n, workers int, fn func(i int)) {
	forEachChunkParallel(n, workers, 64, fn)
}

// ForEachTask runs fn(i) for every i in [0, n) on at most GOMAXPROCS
// goroutines and returns when all have. Workers take tasks in index
// order, one at a time, so queueing the costliest first keeps the last
// worker from finishing alone. fn must only write state owned by task i;
// with one CPU or one task it runs on the caller's goroutine.
func ForEachTask(n int, fn func(i int)) {
	forEachChunkParallel(n, runtime.GOMAXPROCS(0), 1, fn)
}

// ScoreCuisineParallel computes the cuisine's mean flavor sharing N̄s
// with recipe scoring fanned out over workers goroutines (GOMAXPROCS
// when workers < 1). Scores land in a per-recipe slice and the Welford
// accumulation then runs in recipe order, so the result is bit-identical
// to CuisineScore for every cuisine and worker count.
func (a *Analyzer) ScoreCuisineParallel(store *recipedb.Store, c *recipedb.Cuisine, workers int) (float64, int) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(c.RecipeIDs)
	if workers <= 1 || n < 256 {
		// Small cuisines are cheaper to score inline than to fan out.
		return a.CuisineScore(store, c)
	}
	scores := make([]float64, n)
	ok := make([]bool, n)
	// One locked snapshot up front: workers then score without touching
	// the store, so shards never contend on its reader count.
	lists := store.IngredientLists(c.RecipeIDs)
	forEachIndexParallel(n, workers, func(k int) {
		scores[k], ok[k] = a.RecipeScore(lists[k])
	})
	var acc stats.Accumulator
	for k := 0; k < n; k++ {
		if ok[k] {
			acc.Add(scores[k])
		}
	}
	return acc.Mean(), acc.N()
}
