package pairing

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/rng"
	"culinary/internal/storage"
)

// TestAnalyzerAndStoreConcurrent backs the two "safe for concurrent use"
// doc claims under the race detector: a post-construction Analyzer is
// hammered by concurrent readers (Shared, RecipeScore, TopPartners, the
// parallel scoring entry points, which themselves spawn goroutines)
// while a storage.Store absorbs concurrent writers and readers in the
// same process. Run with -race; without it the test is a cheap smoke.
func TestAnalyzerAndStoreConcurrent(t *testing.T) {
	kv, err := storage.Open(t.TempDir(), storage.Options{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()

	store, cuisine := buildLargeStore(t)
	wantMean, wantN := testAnalyzer.CuisineScore(store, cuisine)
	wantShared := testAnalyzer.Shared(0, 1)

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	const iters = 40

	// Analyzer readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if got := testAnalyzer.Shared(0, 1); got != wantShared {
					errc <- fmt.Errorf("Shared changed under readers: %d != %d", got, wantShared)
					return
				}
				id := flavor.ID((g*iters + i) % testAnalyzer.n)
				testAnalyzer.TopPartners(id, 5)
				if _, ok := testAnalyzer.RecipeScore(store.Recipe(cuisine.RecipeIDs[i%len(cuisine.RecipeIDs)]).Ingredients); !ok {
					continue
				}
			}
		}(g)
	}
	// Parallel scorers (goroutine-spawning readers).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if mean, n := testAnalyzer.ScoreCuisineParallel(store, cuisine, 3); mean != wantMean || n != wantN {
					errc <- fmt.Errorf("ScoreCuisineParallel drifted: (%v,%d) != (%v,%d)", mean, n, wantMean, wantN)
					return
				}
			}
		}()
	}
	// Store writers and readers.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := kv.Put(key, []byte("v")); err != nil {
					errc <- err
					return
				}
				if _, err := kv.Get(key); err != nil {
					errc <- err
					return
				}
				if i%8 == 0 {
					if err := kv.Delete(key); err != nil {
						errc <- err
						return
					}
				}
				kv.Has(fmt.Sprintf("g%d-k%d", (g+1)%3, i/2))
				kv.Len()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// checksum hashes everything a NullPool holds.
func (p *NullPool) checksum() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, p.region, p.ids, p.npool, p.weight, p.profiled, p.category, p.catPool,
		p.shared, p.tmpl, p.tmplOff, p.largest)
	return h.Sum64()
}

// TestPoolSamplersRunConcurrently backs NullPool's "safe for concurrent
// use": the four models' samplers over one pool run NullMoments at the
// same time and must each produce the moments, and leave their stream
// where, a sampler with a pool of its own does; nothing may have written
// the pool. "dense" takes the Random model down its Fisher–Yates branch,
// whose permutation scratch must therefore be per sampler. Run with
// -race -count=10.
func TestPoolSamplersRunConcurrently(t *testing.T) {
	const draws = 3000
	for _, shape := range []struct {
		name              string
		poolSize, recipes int
	}{{"typical", 220, 500}, {"dense", 24, 300}} {
		store, c := regionStore(t, 202, shape.poolSize, shape.recipes)
		type outcome struct {
			mean, std float64
			n         int
			next      uint64
		}
		var want [NumModels]outcome
		for _, m := range AllModels() {
			src := rng.New(11).Split(uint64(m))
			s, err := NewNullSampler(testAnalyzer, store, c, m, src)
			if err != nil {
				t.Fatal(err)
			}
			mean, std, n := s.NullMoments(draws)
			want[m] = outcome{mean, std, n, src.Uint64()}
		}

		pool, err := NewNullPool(testAnalyzer, store, c)
		if err != nil {
			t.Fatal(err)
		}
		before := pool.checksum()
		var got [NumModels]outcome
		var wg sync.WaitGroup
		for _, m := range AllModels() {
			wg.Add(1)
			go func(m Model) {
				defer wg.Done()
				src := rng.New(11).Split(uint64(m))
				s, err := pool.Sampler(m, src)
				if err != nil {
					t.Error(err)
					return
				}
				mean, std, n := s.NullMoments(draws)
				got[m] = outcome{mean, std, n, src.Uint64()}
			}(m)
		}
		wg.Wait()
		for _, m := range AllModels() {
			g, w := got[m], want[m]
			if math.Float64bits(g.mean) != math.Float64bits(w.mean) || math.Float64bits(g.std) != math.Float64bits(w.std) || g.n != w.n {
				t.Errorf("%s/%s: shared-pool moments (%v, %v, %d), own-pool (%v, %v, %d)", shape.name, m, g.mean, g.std, g.n, w.mean, w.std, w.n)
			}
			if g.next != w.next {
				t.Errorf("%s/%s: next variate %#x on the shared pool, %#x on its own", shape.name, m, g.next, w.next)
			}
		}
		if after := pool.checksum(); after != before {
			t.Errorf("%s: pool checksum %#x before the samplers ran, %#x after: a sampler wrote shared state", shape.name, before, after)
		}
	}
}
