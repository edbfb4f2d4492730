package pairing

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

// This file holds the parallel scoring entry points. Three determinism
// regimes coexist:
//
//   - Index-addressed fan-out (ScoreCuisineParallel, the parallel
//     Contributions sweep): each work item writes its own slot and the
//     floating-point reduction runs sequentially in item order, so the
//     result is bit-identical to the serial code path no matter how
//     many workers run or how they are scheduled.
//
//   - Sharded sampling (NullMomentsParallel, CompareParallel): each
//     shard owns an independent rng.Source child (src.Split(shard), the
//     one-child-per-goroutine pattern the rng package documents), so
//     results are deterministic for a fixed shard count but follow a
//     different — equally valid — random stream than the serial
//     sampler. The shards share one NullPool.
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

// NullMomentsParallel draws nRecipes randomized recipes under model m
// split across shards independent samplers, each seeded from
// src.Split(shard), and returns the pooled mean and population standard
// deviation of their pairing scores. Results are deterministic for a
// fixed (seed, shards) pair and independent of GOMAXPROCS: shards are
// merged in shard order. shards < 1 defaults to GOMAXPROCS.
func NullMomentsParallel(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model,
	nRecipes, shards int, src *rng.Source) (mean, std float64, scored int, err error) {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > nRecipes {
		shards = max(nRecipes, 1)
	}
	pool, err := NewNullPool(a, store, c)
	if err != nil {
		return 0, 0, 0, err
	}
	accs := make([]stats.Accumulator, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	per := nRecipes / shards
	extra := nRecipes % shards
	for w := 0; w < shards; w++ {
		count := per
		if w < extra {
			count++
		}
		wg.Add(1)
		go func(w, count int) {
			defer wg.Done()
			// A shard keeps everything its draws write to itself: it
			// allocates its stream and sampler here (allocated back to
			// back by one goroutine, the shards' 16-byte streams would
			// share a cache line; Split only reads src) and accumulates
			// on its own stack.
			s, err := pool.Sampler(m, src.Split(uint64(w)))
			if err != nil {
				errs[w] = err
				return
			}
			var acc stats.Accumulator
			s.accumulate(count, &acc)
			accs[w] = acc
		}(w, count)
	}
	wg.Wait()
	var merged stats.Accumulator
	for w := range accs {
		if errs[w] != nil {
			return 0, 0, 0, errs[w]
		}
		merged.Merge(&accs[w])
	}
	return merged.Mean(), merged.PopStdDev(), merged.N(), nil
}

// CompareParallel is Compare with the null sampling sharded across
// shards goroutines via NullMomentsParallel and the observed score
// computed through ScoreCuisineParallel. The observed N̄s is
// bit-identical to Compare's; the null moments follow the sharded
// random stream (deterministic for fixed shards).
func CompareParallel(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model,
	nRecipes, shards int, src *rng.Source) (Result, error) {
	// The observed score is bit-identical for any worker count, so it
	// always gets the full fan-out; shards only sizes the null sampling.
	observed, scoredRecipes := a.ScoreCuisineParallel(store, c, 0)
	if scoredRecipes == 0 {
		return Result{}, fmt.Errorf("pairing: cuisine %s has no scorable recipes", c.Region.Code())
	}
	mean, std, n, err := NullMomentsParallel(a, store, c, m, nRecipes, shards, src)
	if err != nil {
		return Result{}, err
	}
	if n == 0 {
		return Result{}, fmt.Errorf("pairing: model %s produced no scorable recipes for %s", m, c.Region.Code())
	}
	return Result{
		Region:   c.Region,
		Model:    m,
		Observed: observed,
		NullMean: mean,
		NullStd:  std,
		NRandom:  n,
		Z:        stats.ZScore(observed, mean, std, n),
	}, nil
}
