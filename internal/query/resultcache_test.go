package query

import (
	"fmt"
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/synth"
)

// newMutableEngine builds a fresh corpus (never shared — tests mutate
// it) and an engine with the result cache enabled.
func newMutableEngine(t testing.TB, cacheBytes int64) (*Engine, *recipedb.Store) {
	t.Helper()
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	analyzer := pairing.NewAnalyzer(catalog)
	store, err := synth.Generate(analyzer, synth.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(store, analyzer)
	e.EnableResultCache(cacheBytes)
	return e, store
}

// mutateOnce re-upserts recipe 0 with its own contents: a semantic
// no-op that still bumps the corpus version.
func mutateOnce(t testing.TB, store *recipedb.Store) {
	t.Helper()
	rec := store.Recipe(0)
	if _, _, _, err := store.Upsert(0, rec.Name, rec.Region, rec.Source, rec.Ingredients); err != nil {
		t.Fatal(err)
	}
}

// primeRun executes stmt once so its plan is cached: the result cache
// admits a statement's result from its second execution on.
func primeRun(t testing.TB, e *Engine, stmt string) {
	t.Helper()
	if _, err := e.Run(stmt); err != nil {
		t.Fatal(err)
	}
}

// TestResultCacheAdmitsOnSecondSight pins the admission rule: a result
// is cached only when the statement's plan was already cached, so a
// statement asked once never occupies the cache.
func TestResultCacheAdmitsOnSecondSight(t *testing.T) {
	e, store := newMutableEngine(t, 1<<20)
	const stmt = "SELECT region, count(*) FROM recipes GROUP BY region"
	run := func(s string) *Result {
		t.Helper()
		res, err := e.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	unique := func(n, from int) {
		t.Helper()
		for i := 0; i < n; i++ {
			run(fmt.Sprintf("SELECT id, name FROM recipes WHERE id >= %d LIMIT 5", from+i))
		}
	}

	// Statements asked once leave nothing behind.
	unique(2000, 0)
	st := e.ResultCacheStats()
	if st.Entries != 0 || st.Bytes != 0 || st.FirstSight != 2000 {
		t.Fatalf("2000 unique statements retained: %+v", st)
	}

	before := e.ResultCacheStats()
	run(stmt)
	if st = e.ResultCacheStats(); st.Entries != 0 || st.FirstSight != before.FirstSight+1 {
		t.Fatalf("first sight admitted: %+v", st)
	}
	second := run(stmt)
	if st = e.ResultCacheStats(); st.Misses != before.Misses+2 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("second sight not admitted: %+v", st)
	}
	if third := run(stmt); third != second {
		t.Fatal("third Run did not return the second Run's *Result")
	}
	if st = e.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("third Run missed: %+v", st)
	}

	// Its plan still cached, the statement is re-admitted on its first
	// execution after a version fence.
	mutateOnce(t, store)
	before = e.ResultCacheStats()
	fenced := run(stmt)
	st = e.ResultCacheStats()
	if st.Invalidated != before.Invalidated+1 || st.FirstSight != before.FirstSight || st.Entries != 1 {
		t.Fatalf("not re-admitted after the fence: before %+v, after %+v", before, st)
	}
	if again := run(stmt); again != fenced {
		t.Fatal("re-admitted result not served")
	}

	// Once 256 other statements push its plan out, it is new again.
	unique(DefaultPlanCacheCapacity, 10000)
	mutateOnce(t, store)
	before = e.ResultCacheStats()
	run(stmt)
	st = e.ResultCacheStats()
	if st.FirstSight != before.FirstSight+1 || st.Invalidated != before.Invalidated+1 || st.Entries != 0 {
		t.Fatalf("evicted plan not counted as first sight: before %+v, after %+v", before, st)
	}
	readmitted := run(stmt)
	if again := run(stmt); again != readmitted {
		t.Fatal("statement not re-admitted on its second execution")
	}
}

func TestResultCacheHitReturnsSharedResult(t *testing.T) {
	e, _ := newMutableEngine(t, 1<<20)
	const stmt = "SELECT region, count(*) FROM recipes GROUP BY region"
	primeRun(t, e, stmt)
	first, err := e.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second Run did not return the cached *Result")
	}
	st := e.ResultCacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Whitespace-normalized replays share the entry.
	if _, err := e.Run("  SELECT   region, count(*)\n\tFROM recipes GROUP BY region "); err != nil {
		t.Fatal(err)
	}
	if st = e.ResultCacheStats(); st.Hits != 2 {
		t.Errorf("normalized replay missed: %+v", st)
	}
}

func TestResultCacheVersionFencing(t *testing.T) {
	e, store := newMutableEngine(t, 1<<20)
	const stmt = "SELECT count(*) FROM recipes"
	primeRun(t, e, stmt)
	before, err := e.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if before.Version != store.Version() {
		t.Fatalf("result version %d, store %d", before.Version, store.Version())
	}
	mutateOnce(t, store)
	after, err := e.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("stale result served after version bump")
	}
	if after.Version != store.Version() {
		t.Errorf("recomputed result carries version %d, store %d", after.Version, store.Version())
	}
	st := e.ResultCacheStats()
	if st.Invalidated != 1 {
		t.Errorf("lazy invalidation not counted: %+v", st)
	}
	// The real invalidation test: a delete must change the answer.
	if _, err := store.Remove(1); err != nil {
		t.Fatal(err)
	}
	final, err := e.Run(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if final.Rows[0][0].Int != after.Rows[0][0].Int-1 {
		t.Errorf("count after delete = %d, want %d", final.Rows[0][0].Int, after.Rows[0][0].Int-1)
	}
}

func TestResultCacheByteBoundEvicts(t *testing.T) {
	e, _ := newMutableEngine(t, 1) // floor-less tiny budget via direct cache
	// Replace with a cache sized to hold roughly two small results.
	probe, err := e.Run("SELECT count(*) FROM recipes")
	if err != nil {
		t.Fatal(err)
	}
	one := resultBytes(normalizeStatement("SELECT count(*) FROM recipes"), probe)
	e.results = newResultCache(2*one + one/2)

	stmts := []string{
		"SELECT count(*) FROM recipes",
		"SELECT count(*) FROM recipes WHERE size > 3",
		"SELECT count(*) FROM recipes WHERE size > 4",
	}
	for _, s := range stmts {
		primeRun(t, e, s)
	}
	for _, s := range stmts {
		if _, err := e.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	st := e.ResultCacheStats()
	if st.Entries > 2 {
		t.Errorf("byte bound ignored: %+v", st)
	}
	if st.Evicted == 0 {
		t.Errorf("no eviction counted: %+v", st)
	}
	if st.Bytes > st.Capacity {
		t.Errorf("bytes %d over capacity %d", st.Bytes, st.Capacity)
	}
}

func TestResultCacheRejectsOversizedResult(t *testing.T) {
	e, _ := newMutableEngine(t, 1<<20)
	e.results = newResultCache(128) // smaller than any full projection
	primeRun(t, e, "SELECT * FROM recipes LIMIT 50")
	if _, err := e.Run("SELECT * FROM recipes LIMIT 50"); err != nil {
		t.Fatal(err)
	}
	st := e.ResultCacheStats()
	if st.Rejected != 1 || st.Entries != 0 {
		t.Errorf("oversized result not rejected: %+v", st)
	}
}

// TestResultCachePutKeepsNewerVersion pins the slow-writer guard: an
// execution that started before a mutation and finishes after a
// fresher result was cached must not clobber it (its entry could
// never be served, but the fresh one still can).
func TestResultCachePutKeepsNewerVersion(t *testing.T) {
	rc := newResultCache(1 << 20)
	newer := &Result{Version: 5}
	rc.put("k", 5, newer)
	rc.put("k", 4, &Result{Version: 4}) // slow execution finishing late
	if res, ok := rc.get("k", 5); !ok || res != newer {
		t.Fatalf("stale put clobbered fresher entry (ok=%v)", ok)
	}
	// Same-version replacement (two racing misses) still works.
	replacement := &Result{Version: 5}
	rc.put("k", 5, replacement)
	if res, ok := rc.get("k", 5); !ok || res != replacement {
		t.Fatalf("same-version put did not replace (ok=%v)", ok)
	}
	// A probe that read the version before a write landed, racing the
	// Run that cached the fresher result: a plain miss that keeps it.
	if _, ok := rc.get("k", 4); ok {
		t.Fatal("late probe served a newer entry")
	}
	if st := rc.stats(); st.Entries != 1 || st.Invalidated != 0 {
		t.Fatalf("late probe evicted the fresher entry: %+v", st)
	}
	if res, ok := rc.get("k", 5); !ok || res != replacement {
		t.Fatalf("fresher entry lost after a late probe (ok=%v)", ok)
	}
}

func TestResultCacheDisabledEngineUnaffected(t *testing.T) {
	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	analyzer := pairing.NewAnalyzer(catalog)
	store, err := synth.Generate(analyzer, synth.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(store, analyzer)
	if _, err := e.Run("SELECT count(*) FROM recipes"); err != nil {
		t.Fatal(err)
	}
	st := e.ResultCacheStats()
	if st.Enabled || st.Hits+st.Misses != 0 {
		t.Errorf("disabled cache reports activity: %+v", st)
	}
}

// TestResultCacheErrorsNotCached checks statements that fail stay
// uncached and do not corrupt counters.
func TestResultCacheErrorsNotCached(t *testing.T) {
	e, _ := newMutableEngine(t, 1<<20)
	if _, err := e.Run("SELECT bogus FROM recipes"); err == nil {
		t.Fatal("bad statement accepted")
	}
	st := e.ResultCacheStats()
	if st.Entries != 0 || st.Misses != 1 {
		t.Errorf("stats after failed Run: %+v", st)
	}
	if _, err := e.Run("SELECT nope FROM recipes WHERE has('no-such-ingredient-xyz')"); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Fatalf("bind failure expected, got %v", err)
	}
	if st = e.ResultCacheStats(); st.Entries != 0 {
		t.Errorf("failed statement cached: %+v", st)
	}
}
