// Extension benchmarks: the database-system substrates layered on the
// analysis core — persistent storage engine, CQL query engine, search
// index, cuisine classifier and HTTP API. Kept separate from
// bench_test.go, which covers the paper's tables and figures.
package culinary

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"culinary/internal/classify"
	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/recommend"
	"culinary/internal/search"
	"culinary/internal/server"
	"culinary/internal/storage"
)

// BenchmarkStoragePut measures appending fresh keys to the log.
func BenchmarkStoragePut(b *testing.B) {
	db, err := storage.Open(b.TempDir(), storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(fmt.Sprintf("key%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageGet measures random point reads through the keydir.
func BenchmarkStorageGet(b *testing.B) {
	db, err := storage.Open(b.TempDir(), storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	const n = 4096
	val := bytes.Repeat([]byte("v"), 128)
	for i := 0; i < n; i++ {
		if err := db.Put(fmt.Sprintf("key%09d", i), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(fmt.Sprintf("key%09d", i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageSnapshot measures persisting and reloading the corpus
// through the storage engine — the server's -db startup path.
// SaveDurable is the first boot under -db-sync: every WriteBatch of the
// save pays its fsync.
func BenchmarkStorageSnapshot(b *testing.B) {
	for _, c := range []struct {
		name string
		opts storage.Options
	}{
		{"Save", storage.Options{}},
		{"SaveDurable", storage.Options{SyncEveryPut: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, err := storage.Open(b.TempDir(), c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := storage.SaveCorpus(db, benchEnv.Store); err != nil {
					b.Fatal(err)
				}
				db.Close()
			}
		})
	}
	b.Run("Load", func(b *testing.B) {
		db, err := storage.Open(b.TempDir(), storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		if err := storage.SaveCorpus(db, benchEnv.Store); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store, err := storage.LoadCorpus(db, benchEnv.Catalog)
			if err != nil {
				b.Fatal(err)
			}
			if store.Len() != benchEnv.Store.Len() {
				b.Fatal("size mismatch")
			}
		}
	})
}

// BenchmarkQueryEngine measures representative CQL statements,
// including the region-index fast path vs the full scan.
func BenchmarkQueryEngine(b *testing.B) {
	engine := query.NewEngine(benchEnv.Store, benchEnv.Analyzer)
	cases := map[string]string{
		"FullScanFilter":  "SELECT name FROM recipes WHERE size >= 12",
		"RegionIndexScan": "SELECT name FROM recipes WHERE region = 'ITA' AND size >= 12",
		"GroupByRegion":   "SELECT region, count(*), avg(size) FROM recipes GROUP BY region",
		"HasIngredient":   "SELECT count(*) FROM recipes WHERE has('garlic')",
		"OrderByLimit":    "SELECT name, size FROM recipes ORDER BY size DESC LIMIT 10",
	}
	for name, stmt := range cases {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryShapes measures the statement shapes the HTTP
// benchmark sends, at the scale the server runs at (benchEnv's 5 %
// corpus has none of the long posting lists): the two cold shapes and
// the four hot ones, re-executed as they are after every write fences
// the response cache. Every run parses, binds and executes its
// statement. Statements are built as bench/workload.go builds them; run
// with -benchmem, the allocation columns are part of the contract.
func BenchmarkQueryShapes(b *testing.B) {
	env := fullScaleEnv()
	var names []string
	for i := 0; i < env.Catalog.Len(); i++ {
		if name := env.Catalog.Ingredient(flavor.ID(i)).Name; !strings.ContainsAny(name, `'"\`) {
			names = append(names, name)
		}
	}
	regions := recipedb.MajorRegions()
	// 1 024 cold statements (four times the plan cache the engine once
	// had) and 16 hot ones, so the statement sets stay the ones earlier
	// rows were measured on.
	const cold, hot = 1024, 16
	shapes := []struct {
		name string
		n    int
		stmt func(i int, a, c string, r recipedb.Region) string
	}{
		{"cold_scan", cold, func(i int, a, _ string, r recipedb.Region) string {
			return fmt.Sprintf("SELECT id, name, size FROM recipes WHERE region = '%s' AND has('%s') AND size >= %d LIMIT 20", r.Code(), a, 2+i%12)
		}},
		{"cold_group", cold, func(_ int, a, c string, _ recipedb.Region) string {
			return fmt.Sprintf("SELECT region, count(*) FROM recipes WHERE has('%s') AND NOT has('%s') GROUP BY region", a, c)
		}},
		{"hot_group", hot, func(_ int, a, _ string, _ recipedb.Region) string {
			return fmt.Sprintf("SELECT region, count(*) FROM recipes WHERE has('%s') GROUP BY region", a)
		}},
		{"hot_topk", hot, func(_ int, a, _ string, r recipedb.Region) string {
			return fmt.Sprintf("SELECT name, size FROM recipes WHERE region = '%s' AND has('%s') ORDER BY size DESC LIMIT 10", r.Code(), a)
		}},
		{"hot_region_agg", hot, func(_ int, _, _ string, r recipedb.Region) string {
			return fmt.Sprintf("SELECT count(*), avg(size) FROM recipes WHERE region = '%s'", r.Code())
		}},
		{"hot_not", hot, func(_ int, a, c string, _ recipedb.Region) string {
			return fmt.Sprintf("SELECT id, name FROM recipes WHERE has('%s') AND NOT has('%s') LIMIT 20", a, c)
		}},
	}
	for _, s := range shapes {
		stmts := make([]string, s.n)
		for i := range stmts {
			a, c := names[(i*7)%len(names)], names[(i*13+5)%len(names)]
			stmts[i] = s.stmt(i, a, c, regions[(i/4)%len(regions)])
		}
		b.Run(s.name, func(b *testing.B) {
			engine := query.NewEngine(env.Store, env.Analyzer)
			for _, stmt := range stmts {
				if _, err := engine.Run(stmt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Run(stmts[i%len(stmts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIngredientIndex compares the planner's posting-list
// scan for has() against the equivalent full scan (the planner cannot
// use the index when has() sits under NOT(NOT ...)).
func BenchmarkAblationIngredientIndex(b *testing.B) {
	engine := query.NewEngine(benchEnv.Store, benchEnv.Analyzer)
	b.Run("PostingList", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run("SELECT count(*) FROM recipes WHERE has('saffron')"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run("SELECT count(*) FROM recipes WHERE NOT (NOT has('saffron'))"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryParse isolates parsing from execution.
func BenchmarkQueryParse(b *testing.B) {
	const stmt = "SELECT region, count(*), avg(size) FROM recipes WHERE (size >= 4 AND has('garlic')) OR category('Spice') > 2 GROUP BY region ORDER BY count(*) DESC LIMIT 5"
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearch measures index construction and querying. A query
// runs as the server runs it: SearchView inside a Read held around the
// timed loop.
func BenchmarkSearch(b *testing.B) {
	idx := search.Build(benchEnv.Store)
	b.Run("Build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if search.Build(benchEnv.Store).Vocabulary() == 0 {
				b.Fatal("empty index")
			}
		}
	})
	query := func(q string, opts search.Options) func(*testing.B) {
		return func(b *testing.B) {
			benchEnv.Store.Read(func(v *recipedb.View) {
				for i := 0; i < b.N; i++ {
					idx.SearchView(v, q, opts)
				}
			})
		}
	}
	b.Run("QueryAny", query("tomato garlic basil", search.Options{Limit: 10}))
	b.Run("QueryAll", query("tomato garlic", search.Options{Mode: search.ModeAll, Limit: 10}))
	b.Run("QueryFuzzy", query("tomatto garlik", search.Options{Fuzzy: true, Limit: 10}))
}

// fullScaleSearch is the paper-sized corpus (scale 1.0, ~45 800
// recipes), its index and the search terms as the repository benchmark's
// workloads choose them (bench/workload.go: single-word catalog names in
// id order, the first 64 the hot set). benchEnv is 5 % scale, where the
// posting lists that dominate a served search do not occur.
var fullScaleEnv = sync.OnceValue(func() *experiments.Env {
	env, err := experiments.NewEnv(experiments.DefaultOptions())
	if err != nil {
		panic(err)
	}
	return env
})

var fullScaleSearch = sync.OnceValue(func() (s struct {
	store *recipedb.Store
	idx   *search.Index
	terms []string
}) {
	env := fullScaleEnv()
	s.store, s.idx = env.Store, search.Build(env.Store)
	for i := 0; i < env.Catalog.Len(); i++ {
		name := env.Catalog.Ingredient(flavor.ID(i)).Name
		if !strings.ContainsAny(name, ` '"\`) {
			s.terms = append(s.terms, name)
		}
	}
	return s
})

// BenchmarkServerBoot measures what `cmd/server -db DIR` does between
// exec and listening when DIR holds a snapshot: Open (segment replay),
// LoadCorpus (fold, decode, install), server.New (search index,
// classifier, recommender), at the scale the server runs at and on the
// single-segment directory a first boot's SaveCorpus leaves. The
// open-ms, load-ms and new-ms columns split the total by stage.
func BenchmarkServerBoot(b *testing.B) {
	env := fullScaleEnv()
	dir := b.TempDir()
	db, err := storage.Open(dir, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := storage.SaveCorpus(db, env.Store); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var open, load, boot time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		db, err := storage.Open(dir, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		store, err := storage.LoadCorpus(db, env.Catalog)
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		srv, err := server.New(server.Config{Store: store, Analyzer: env.Analyzer})
		if err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		open, load, boot = open+t1.Sub(t0), load+t2.Sub(t1), boot+t3.Sub(t2)
		if store.Len() != env.Store.Len() {
			b.Fatalf("loaded %d recipes, want %d", store.Len(), env.Store.Len())
		}
		srv.Close()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(open), "open-ms")
	b.ReportMetric(perOp(load), "load-ms")
	b.ReportMetric(perOp(boot), "new-ms")
}

// BenchmarkSearchFullScale measures one-term searches and the index
// build at the scale the server runs at; run with -benchmem, the
// allocation columns are the point. A search runs as the server runs
// it: SearchView inside a Read held around the timed loop.
func BenchmarkSearchFullScale(b *testing.B) {
	const hotTerms = 64
	s := fullScaleSearch()
	query := func(terms []string) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			s.store.Read(func(v *recipedb.View) {
				for i := 0; i < b.N; i++ {
					hits += len(s.idx.SearchView(v, terms[i%len(terms)], search.Options{Limit: 10}))
				}
			})
			if hits == 0 {
				b.Fatal("no term had a hit")
			}
		}
	}
	b.Run("HotTerm", query(s.terms[:hotTerms]))
	b.Run("AnyTerm", query(s.terms))
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if search.Build(s.store).Vocabulary() == 0 {
				b.Fatal("empty index")
			}
		}
	})
}

// BenchmarkClassify measures training and prediction of the cuisine
// classifier.
func BenchmarkClassify(b *testing.B) {
	train, test, err := classify.Split(benchEnv.Store, 0.2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := classify.New()
			if err := c.Train(benchEnv.Store, train); err != nil {
				b.Fatal(err)
			}
		}
	})
	c := classify.New()
	if err := c.Train(benchEnv.Store, train); err != nil {
		b.Fatal(err)
	}
	b.Run("Predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := benchEnv.Store.Recipe(test[i%len(test)])
			if _, err := c.PredictRegion(rec.Ingredients); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fingerprints", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if fp := classify.Fingerprints(benchEnv.Store, 3); len(fp) == 0 {
				b.Fatal("no fingerprints")
			}
		}
	})
}

// BenchmarkRecommend measures recipe completion and ingredient
// substitution — the food-design kernels.
func BenchmarkRecommend(b *testing.B) {
	tomato, ok := benchEnv.Catalog.Lookup("tomato")
	if !ok {
		b.Fatal("no tomato")
	}
	garlic, _ := benchEnv.Catalog.Lookup("garlic")
	basil, _ := benchEnv.Catalog.Lookup("basil")
	b.Run("Complete", func(b *testing.B) {
		partial := []flavor.ID{tomato, garlic, basil}
		for i := 0; i < b.N; i++ {
			var err error
			benchEnv.Store.Read(func(v *recipedb.View) {
				_, err = recommend.Complete(v, benchEnv.Analyzer, recipedb.Italy, partial, recommend.CompleteOptions{K: 5})
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Substitutes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := recommend.Substitutes(benchEnv.Catalog, basil, recommend.SubstituteOptions{K: 5, RequireSameCategory: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerHandler measures serve_read_hot's four requests and
// the region pages through Server.Handler() in process — routing, the
// version gate, the handler's work and the JSON encode, no transport —
// on a server without a response cache, so every request runs its
// handler (query parses, binds and executes its statement). The
// hit/ rows send the four hot requests to a server with the response
// cache, after a first sight and the admitted request that stores the
// answer: the gate, the key and one replayed Write. The request and the
// response writer are reused, so -benchmem's columns are the server's
// own; internal/server's TestHandlerAllocationBudget pins the same
// requests' allocation counts.
func BenchmarkServerHandler(b *testing.B) {
	handler := func(cacheBytes int64) http.Handler {
		srv, err := server.New(server.Config{
			Store:            benchEnv.Store,
			Analyzer:         benchEnv.Analyzer,
			ResultCacheBytes: cacheBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		return srv.Handler()
	}
	uncached, cached := handler(0), handler(server.DefaultResponseCacheBytes)
	run := func(h http.Handler, method, path, body string) func(*testing.B) {
		return func(b *testing.B) {
			rd := strings.NewReader(body)
			req := httptest.NewRequest(method, path, rd)
			w := &statusWriter{hdr: http.Header{}}
			serve := func() {
				rd.Reset(body)
				w.status = 0
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("%s %s -> %d", method, path, w.status)
				}
			}
			serve() // warm: the response buffer pool, a first sight
			serve() // stores the answer where there is a response cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		}
	}
	const query = `{"q":"SELECT region, count(*) FROM recipes GROUP BY region"}`
	b.Run("recipe", run(uncached, "GET", "/api/recipes/0", ""))
	b.Run("search", run(uncached, "GET", "/api/search?q=tomato&limit=10", ""))
	b.Run("query", run(uncached, "POST", "/api/query", query))
	b.Run("pairings", run(uncached, "GET", "/api/ingredients/tomato/pairings", ""))
	b.Run("region_usa", run(uncached, "GET", "/api/regions/USA", ""))
	b.Run("region_kor", run(uncached, "GET", "/api/regions/KOR", ""))
	b.Run("regions", run(uncached, "GET", "/api/regions", ""))
	b.Run("hit/recipe", run(cached, "GET", "/api/recipes/0", ""))
	b.Run("hit/search", run(cached, "GET", "/api/search?q=tomato&limit=10", ""))
	b.Run("hit/query", run(cached, "POST", "/api/query", query))
	b.Run("hit/pairings", run(cached, "GET", "/api/ingredients/tomato/pairings", ""))
}

// statusWriter is a reusable http.ResponseWriter that keeps only the
// status.
type statusWriter struct {
	hdr    http.Header
	status int
}

func (w *statusWriter) Header() http.Header         { return w.hdr }
func (w *statusWriter) WriteHeader(status int)      { w.status = status }
func (w *statusWriter) Write(p []byte) (int, error) { return len(p), nil }
