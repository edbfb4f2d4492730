package culinary

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/search"
	"culinary/internal/storage"
)

// Writer fan-in benchmarks. The CI mutation gate runs these and
// compares ns/op against BENCH_baseline.json:
//
//	go test -bench 'MutationFanIn|BulkIngest' -benchtime 2000x .
//
// Serial reproduces the pre-fan-in write path — every mutation's whole
// lifecycle (validate, encode, fsync, index) behind one external mutex,
// so writers cannot overlap and every op pays its own group commit.
// FanIn submits the same concurrent load straight to the store, where
// the fan-in coalesces queued writers into shared critical sections and
// shared fsyncs. The "ops/batch" metric reports the measured
// coalescing factor; it must exceed 1 for the multi-writer FanIn rows.

// benchMutationStore builds a storage-backed store over a bounded slot
// window so replace-heavy benchmark loops do not grow the corpus.
func benchMutationStore(b *testing.B, window int) *recipedb.Store {
	b.Helper()
	store := recipedb.NewStore(benchEnv.Store.Catalog())
	db, err := storage.Open(b.TempDir(), storage.Options{SyncEveryPut: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	store.SetBackend(db)
	for i := 0; i < window; i++ {
		if _, _, _, err := store.Upsert(i, fmt.Sprintf("seed %d", i), recipedb.Italy,
			recipedb.AllRecipes, []flavor.ID{flavor.ID(i % 40), flavor.ID(40 + i%40)}); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

func benchMutationWriters(b *testing.B, writers int, serialize bool) {
	const window = 512
	store := benchMutationStore(b, window)
	before := store.BatchStats()
	var serialMu sync.Mutex
	var ctr atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		share := b.N / writers
		if w < b.N%writers {
			share++
		}
		wg.Add(1)
		go func(share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				n := ctr.Add(1)
				slot := int(n % window)
				ing := []flavor.ID{flavor.ID(n % 40), flavor.ID(40 + (n+1)%40)}
				if serialize {
					serialMu.Lock()
				}
				_, _, _, err := store.Upsert(slot, fmt.Sprintf("bench %d", n),
					recipedb.France, recipedb.AllRecipes, ing)
				if serialize {
					serialMu.Unlock()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(share)
	}
	wg.Wait()
	b.StopTimer()
	after := store.BatchStats()
	if batches := after.Batches - before.Batches; batches > 0 {
		b.ReportMetric(float64(after.Ops-before.Ops)/float64(batches), "ops/batch")
	}
}

func BenchmarkMutationFanIn(b *testing.B) {
	for _, mode := range []struct {
		name      string
		serialize bool
	}{{"Serial", true}, {"FanIn", false}} {
		b.Run(mode.name, func(b *testing.B) {
			for _, w := range []int{1, 4, 8} {
				b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
					benchMutationWriters(b, w, mode.serialize)
				})
			}
		})
	}
}

// BenchmarkBulkIngest measures per-recipe cost of ApplyBatch chunks —
// the POST /api/recipes/batch hot path: one group commit and one
// critical section per 64 recipes. ns/op is per recipe, not per batch.
func BenchmarkBulkIngest(b *testing.B) {
	const window = 4096
	const chunk = 64
	store := benchMutationStore(b, 1) // seed one slot; batches grow the window
	b.ResetTimer()
	applied := 0
	for applied < b.N {
		n := chunk
		if b.N-applied < n {
			n = b.N - applied
		}
		items := make([]recipedb.BatchItem, n)
		for j := range items {
			k := applied + j
			items[j] = recipedb.BatchItem{
				ID:     k % window,
				Name:   fmt.Sprintf("bulk %d", k),
				Region: recipedb.USA,
				Source: recipedb.AllRecipes,
				Ingredients: []flavor.ID{
					flavor.ID(k % 40), flavor.ID(40 + (k+1)%40),
				},
			}
		}
		for j, res := range store.ApplyBatch(items) {
			if res.Err != nil {
				b.Fatalf("item %d: %v", j, res.Err)
			}
		}
		applied += n
	}
}

// BenchmarkCorpusMutation measures one write's in-memory cost at the
// scale the server runs at — the part of a durable write that is not
// the fsync: a private store loaded with the scale-1.0 corpus (~45 800
// recipes, posting lists thousands long) and the live search index
// subscribed, no backend. replaceLow rewrites slots 0–63, in front of
// every list's whole tail; replaceRecent rewrites the top 64 slots;
// both take donors from 64 live recipes mid-corpus, a different donor
// each round, so every write really changes its slot. delete tombstones
// slots 0–63 in turn and revives the window, untimed, when it runs out;
// deleteRecent does the same to the top 64 slots, where the serving
// workloads delete (they remove recipes they created).
// The other write benches run on a 512-slot store or the 5 % corpus,
// where a list that a write copies in full is short.
func BenchmarkCorpusMutation(b *testing.B) {
	const window = 64
	env := fullScaleEnv()
	var recs []recipedb.Recipe
	env.Store.Read(func(v *recipedb.View) {
		for _, id := range v.RegionRecipes(recipedb.World) {
			recs = append(recs, *v.Recipe(id))
		}
	})
	donors := recs[len(recs)/2 : len(recs)/2+window]
	private := func(b *testing.B) *recipedb.Store {
		store := recipedb.NewStore(env.Catalog)
		if _, err := store.Load(recs); err != nil {
			b.Fatal(err)
		}
		search.NewLive(store)
		return store
	}
	replace := func(top bool) func(*testing.B) {
		return func(b *testing.B) {
			store := private(b)
			base := 0
			if top {
				base = store.Slots() - window
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := &donors[(i+i/window)%window]
				if _, _, _, err := store.Upsert(base+i%window, d.Name, d.Region, d.Source, d.Ingredients); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	remove := func(top bool) func(*testing.B) {
		return func(b *testing.B) {
			store := private(b)
			victims := recs[:window]
			if top {
				victims = recs[len(recs)-window:]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%window == 0 {
					b.StopTimer()
					if _, err := store.Load(victims); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := store.Remove(victims[i%window].ID); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("replaceLow", replace(false))
	b.Run("replaceRecent", replace(true))
	b.Run("delete", remove(false))
	b.Run("deleteRecent", remove(true))
}
