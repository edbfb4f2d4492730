// Search-index maintenance benchmark: the incremental posting-list
// maintenance the live search index does per mutation instead of a
// full rebuild (BenchmarkSearch/Build). It backs the CI bench gate row
// SearchIncrementalUpsert in BENCH_baseline.json.
package culinary

import (
	"fmt"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/recipedb"
	"culinary/internal/search"
)

// BenchmarkSearchIncrementalUpsert measures the live index's per-
// mutation maintenance: each store upsert re-tokenizes one recipe and
// patches its posting lists inside the mutation critical section —
// the price of the "acked upsert is searchable on the next request"
// contract, which a full Build per mutation could never afford.
func BenchmarkSearchIncrementalUpsert(b *testing.B) {
	// A private corpus: the upserts below mutate it, and the shared
	// benchEnv must stay pristine for the other benchmarks.
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		b.Fatal(err)
	}
	live := search.NewLive(env.Store)
	const slots = 64
	if env.Store.Len() < slots*2 {
		b.Fatal("corpus too small")
	}
	// Donor ingredient lists drawn from existing recipes keep the
	// upserts valid without exercising catalog lookup in the loop.
	donors := make([]recipedb.Recipe, slots)
	for i := range donors {
		donors[i] = env.Store.Recipe(slots + i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		donor := donors[i%slots]
		_, _, _, err := env.Store.Upsert(i%slots, fmt.Sprintf("bench upsert %d", i),
			donor.Region, donor.Source, donor.Ingredients)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits := live.Search("bench upsert", search.Options{Mode: search.ModeAll, Limit: slots}); len(hits) != min(b.N, slots) {
		b.Fatalf("%d upserted recipes searchable, want %d", len(hits), min(b.N, slots))
	}
}
