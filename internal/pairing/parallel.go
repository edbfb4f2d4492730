package pairing

import (
	"fmt"
	"runtime"
	"sync"

	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

// This file holds the parallel scoring entry points. Two determinism
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
//     sampler.

// forEachChunkParallel runs fn(i) for every i in [0, n) across workers
// goroutines using a channel-fed pool of chunk-sized index ranges —
// the one worker-pool shape shared by analyzer construction and the
// scoring fan-outs. Workers pull chunks dynamically, so uneven
// per-index work balances without a static partition. fn must only
// write state owned by index i.
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
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := range next {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	for lo := 0; lo < n; lo += chunk {
		next <- lo
	}
	close(next)
	wg.Wait()
}

// forEachIndexParallel is forEachChunkParallel with the scoring paths'
// default chunk size.
func forEachIndexParallel(n, workers int, fn func(i int)) {
	forEachChunkParallel(n, workers, 64, fn)
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
		go func(w, count int, child *rng.Source) {
			defer wg.Done()
			s, err := NewNullSampler(a, store, c, m, child)
			if err != nil {
				errs[w] = err
				return
			}
			s.accumulate(count, &accs[w])
		}(w, count, src.Split(uint64(w)))
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
