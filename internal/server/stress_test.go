package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/recipedb"
	"culinary/internal/search"
	"culinary/internal/storage"
)

// TestMutationStressRace is the corpus-mutation race battery the
// response cache's coherence argument rests on: writer goroutines
// upsert/delete recipes through the HTTP mutation endpoints (writing
// through to a real storage engine) while reader goroutines hammer a
// fixed query mix through POST /api/query with the response cache on.
// It asserts
//
//   - zero stale reads: every response's embedded corpus version is >=
//     the version observed just before the request was issued,
//   - monotonic version observation per reader, and
//   - the cache counters reconcile: every query probed the response
//     cache exactly once, and every resident or invalidated entry and
//     every first sight traces back to a miss of its own.
//
// Run under -race (CI does), the test also proves the store's epoch
// locking: readers never observe a half-applied mutation.
func TestMutationStressRace(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Seed the backend with the full corpus so the post-stress "backend
	// == live corpus" audit covers unmutated recipes too.
	if err := storage.SaveCorpus(db, env.Store); err != nil {
		t.Fatal(err)
	}
	env.Store.SetBackend(db)

	srv, err := New(Config{
		Store:            env.Store,
		Analyzer:         env.Analyzer,
		NullRecipes:      200,
		Seed:             11,
		DB:               db,
		ResultCacheBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	const (
		writers      = 4
		writesPerGo  = 120
		readers      = 4
		queriesPerGo = 250
		initialSlots = 64 // writers mutate only this low slot range
	)
	if env.Store.Len() < initialSlots*2 {
		t.Fatalf("corpus too small: %d", env.Store.Len())
	}
	regions := []string{"ITA", "FRA", "JPN", "INSC"}
	ingredients := make([]string, 0, 8)
	for i := 0; i < env.Store.Catalog().Len() && len(ingredients) < 8; i++ {
		ingredients = append(ingredients, env.Store.Catalog().Ingredient(env.Store.Recipe(i).Ingredients[0]).Name)
	}
	queryMix := []string{
		"SELECT region, count(*), avg(size) FROM recipes GROUP BY region",
		"SELECT count(*) FROM recipes",
		"SELECT name, size FROM recipes WHERE region = 'ITA' ORDER BY size DESC LIMIT 5",
		"SELECT count(*) FROM recipes WHERE size >= 6",
		"SELECT source, count(*) FROM recipes GROUP BY source",
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	post := func(path string, body interface{}) (int, map[string]interface{}) {
		raw, _ := json.Marshal(body)
		req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		var decoded map[string]interface{}
		json.Unmarshal(rr.Body.Bytes(), &decoded)
		return rr.Code, decoded
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPerGo; i++ {
				slot := (w*writesPerGo + i*7) % initialSlots
				switch i % 3 {
				case 0, 1: // upsert an existing (or previously deleted) slot
					code, body := post("/api/recipes", map[string]interface{}{
						"id":          slot,
						"name":        fmt.Sprintf("stress dish w%d i%d", w, i),
						"region":      regions[(w+i)%len(regions)],
						"source":      "Epicurious",
						"ingredients": ingredients[:2+(i%3)],
					})
					if code != http.StatusOK && code != http.StatusCreated {
						errs <- fmt.Errorf("writer %d: upsert slot %d: %d %v", w, slot, code, body)
						return
					}
				case 2: // delete; racing deletes may 404, which is fine
					req := httptest.NewRequest("DELETE", fmt.Sprintf("/api/recipes/%d", slot), nil)
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, req)
					if rr.Code != http.StatusOK && rr.Code != http.StatusNotFound {
						errs <- fmt.Errorf("writer %d: delete slot %d: %d %s", w, slot, rr.Code, rr.Body)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSeen uint64
			for i := 0; i < queriesPerGo; i++ {
				start := env.Store.Version()
				code, body := post("/api/query", map[string]string{"q": queryMix[(r+i)%len(queryMix)]})
				if code != http.StatusOK {
					errs <- fmt.Errorf("reader %d: query %d: status %d: %v", r, i, code, body)
					return
				}
				raw, ok := body["version"].(float64)
				if !ok {
					errs <- fmt.Errorf("reader %d: response lacks version: %v", r, body)
					return
				}
				got := uint64(raw)
				if got < start {
					errs <- fmt.Errorf("reader %d: STALE READ: version %d < %d at request start", r, got, start)
					return
				}
				if got < lastSeen {
					errs <- fmt.Errorf("reader %d: version went backwards: %d after %d", r, got, lastSeen)
					return
				}
				lastSeen = got
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Counter reconciliation. Readers send the only cacheable requests
	// and the only Run calls, so: every query probed the response cache
	// exactly once; and every entry that is resident or was dropped when the version
	// moved traces back to an admitted miss that stored it, and every
	// first sight to a miss that was not admitted (concurrent misses of
	// one key may both be admitted and store once, hence <=).
	rcs := srv.cache.stats()
	totalQueries := int64(readers * queriesPerGo)
	if rcs.Hits+rcs.Misses != totalQueries {
		t.Errorf("response cache probes %d+%d != %d queries", rcs.Hits, rcs.Misses, totalQueries)
	}
	if resident := int64(rcs.Entries) + rcs.Invalidated + rcs.FirstSight; resident > rcs.Misses {
		t.Errorf("entries %d + invalidated %d + first sight %d exceed misses %d",
			rcs.Entries, rcs.Invalidated, rcs.FirstSight, rcs.Misses)
	}
	if rcs.Hits == 0 {
		t.Error("stress run never hit the response cache")
	}

	// Deterministic invalidation check (the concurrent phase may or may
	// not interleave a mutation between a store and the next probe):
	// cache an answer (first sight, admitted, hit), mutate, probe again —
	// every entry of the old version must be dropped at once and the
	// recomputed answer must carry the new version.
	for i := 0; i < 3; i++ {
		if code, _ := post("/api/query", map[string]string{"q": queryMix[0]}); code != http.StatusOK {
			t.Fatalf("pre-invalidation query: %d", code)
		}
	}
	before := srv.cache.stats()
	if before.Entries == 0 {
		t.Fatalf("a statement sent three times left no entry: %+v", before)
	}
	if code, body := post("/api/recipes", map[string]interface{}{
		"id": 0, "name": "final invalidation probe", "region": "ITA",
		"source": "Epicurious", "ingredients": ingredients[:2],
	}); code != http.StatusOK && code != http.StatusCreated {
		t.Fatalf("final upsert: %d %v", code, body)
	}
	code, body := post("/api/query", map[string]string{"q": queryMix[0]})
	if code != http.StatusOK {
		t.Fatalf("post-invalidation query: %d", code)
	}
	if got := uint64(body["version"].(float64)); got != env.Store.Version() {
		t.Errorf("post-mutation query version %d, store %d", got, env.Store.Version())
	}
	if after := srv.cache.stats(); after.Invalidated != before.Invalidated+int64(before.Entries) || after.Entries != 0 {
		t.Errorf("invalidated %d -> %d with %d entries resident, now %d entries; want all dropped at once",
			before.Invalidated, after.Invalidated, before.Entries, after.Entries)
	}

	// The write-through backend must hold exactly the live corpus.
	reloaded, err := storage.LoadCorpus(db, env.Store.Catalog())
	if err != nil {
		t.Fatalf("reloading the backend: %v", err)
	}
	if reloaded.Len() != env.Store.Len() {
		t.Errorf("backend holds %d live recipes, corpus has %d", reloaded.Len(), env.Store.Len())
	}

	// And the health endpoint reports the final corpus version.
	req := httptest.NewRequest("GET", "/api/health", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var health map[string]interface{}
	if err := json.Unmarshal(rr.Body.Bytes(), &health); err != nil {
		t.Fatalf("health: %v", err)
	}
	if v := uint64(health["corpusVersion"].(float64)); v != env.Store.Version() {
		t.Errorf("health corpusVersion %d, store %d", v, env.Store.Version())
	}
	if _, ok := health["resultCache"].(map[string]interface{}); !ok {
		t.Errorf("health lacks resultCache block: %v", health)
	}
}

// TestRecipeListingStressRace: writers insert into and delete from one
// region while readers page its last page. A listing takes its page and
// its total from one read of the corpus, so however the writes land,
// every page holds exactly min(limit, total-offset) recipes of the total
// it reports.
func TestRecipeListingStressRace(t *testing.T) {
	s, h := mutableServer(t)
	store := s.cfg.Store
	const (
		writers     = 2
		writesPerGo = 150
		readers     = 4
		pagesPerGo  = 150
		limit       = 10
	)
	ingredients := store.Recipe(0).Ingredients

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writesPerGo; i++ {
				id, err := store.Add("listing churn", recipedb.Korea, recipedb.AllRecipes, ingredients)
				if err == nil {
					_, err = store.Remove(id)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < pagesPerGo; i++ {
				offset := max(0, store.RegionLen(recipedb.Korea)-limit/2)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/api/recipes?region=KOR&limit=%d&offset=%d", limit, offset), nil))
				var page struct {
					Recipes []json.RawMessage `json:"recipes"`
					Total   int               `json:"total"`
				}
				if err := json.Unmarshal(rr.Body.Bytes(), &page); rr.Code != http.StatusOK || err != nil {
					t.Errorf("offset %d: %d %v: %s", offset, rr.Code, err, rr.Body)
					return
				}
				if want := min(limit, max(0, page.Total-offset)); len(page.Recipes) != want {
					t.Errorf("offset %d: %d recipes under total %d, want %d", offset, len(page.Recipes), page.Total, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDerivedStressRace is the read-model counterpart of
// TestMutationStressRace: writer goroutines churn the corpus through
// the HTTP mutation endpoints while readers hammer the three read
// models — full-text search (maintained synchronously inside the
// mutation critical section), the classifier and the recommender (both
// reading the corpus counters under the request's Store.Read). It
// asserts
//
//   - freshness: every /api/search response's version and every
//     /api/classify and /api/complete response's modelVersion is >= the
//     corpus version sampled just before the request, and per-reader
//     monotonic — no read model serves a stale epoch, and
//   - quiesced equivalence: after the storm the incrementally-maintained
//     index is byte-identical to a fresh search.Build over the same
//     corpus and reports zero lag, and both models answer at exactly
//     the corpus head.
//
// Run under -race (CI does), it also proves the subscriber plumbing and
// the counter reads add no data races to the mutation path.
func TestDerivedStressRace(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:       env.Store,
		Analyzer:    env.Analyzer,
		NullRecipes: 200,
		Seed:        13,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const (
		writers      = 4
		writesPerGo  = 80
		readers      = 4
		readsPerGo   = 120
		initialSlots = 64
	)
	if env.Store.Len() < initialSlots*2 {
		t.Fatalf("corpus too small: %d", env.Store.Len())
	}
	regions := []string{"ITA", "FRA", "JPN", "INSC"}
	ingredients := make([]string, 0, 8)
	for i := 0; i < env.Store.Catalog().Len() && len(ingredients) < 8; i++ {
		ingredients = append(ingredients, env.Store.Catalog().Ingredient(env.Store.Recipe(i).Ingredients[0]).Name)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	post := func(path string, body interface{}) (int, map[string]interface{}) {
		raw, _ := json.Marshal(body)
		req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		var decoded map[string]interface{}
		json.Unmarshal(rr.Body.Bytes(), &decoded)
		return rr.Code, decoded
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPerGo; i++ {
				slot := (w*writesPerGo + i*7) % initialSlots
				switch i % 3 {
				case 0, 1:
					code, body := post("/api/recipes", map[string]interface{}{
						"id":          slot,
						"name":        fmt.Sprintf("derived stress w%d i%d", w, i),
						"region":      regions[(w+i)%len(regions)],
						"source":      "Epicurious",
						"ingredients": ingredients[:2+(i%3)],
					})
					if code != http.StatusOK && code != http.StatusCreated {
						errs <- fmt.Errorf("writer %d: upsert slot %d: %d %v", w, slot, code, body)
						return
					}
				case 2: // racing deletes may 404, which is fine
					req := httptest.NewRequest("DELETE", fmt.Sprintf("/api/recipes/%d", slot), nil)
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, req)
					if rr.Code != http.StatusOK && rr.Code != http.StatusNotFound {
						errs <- fmt.Errorf("writer %d: delete slot %d: %d %s", w, slot, rr.Code, rr.Body)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSearch, lastClassify, lastComplete uint64
			for i := 0; i < readsPerGo; i++ {
				switch i % 3 {
				case 0: // search: synchronous, so >= the pre-request corpus version
					start := env.Store.Version()
					req := httptest.NewRequest("GET", "/api/search?q="+url.QueryEscape(ingredients[(r+i)%len(ingredients)]), nil)
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, req)
					if rr.Code != http.StatusOK {
						errs <- fmt.Errorf("reader %d: search %d: %d %s", r, i, rr.Code, rr.Body)
						return
					}
					var body map[string]interface{}
					json.Unmarshal(rr.Body.Bytes(), &body)
					got := uint64(body["version"].(float64))
					if got < start {
						errs <- fmt.Errorf("reader %d: STALE SEARCH: version %d < %d at request start", r, got, start)
						return
					}
					if got < lastSearch {
						errs <- fmt.Errorf("reader %d: search version went backwards: %d after %d", r, got, lastSearch)
						return
					}
					lastSearch = got
				case 1: // classify: reads the counters, so >= the pre-request version
					start := env.Store.Version()
					code, body := post("/api/classify", map[string]interface{}{
						"ingredients": ingredients[:2+(i%3)],
					})
					if code != http.StatusOK {
						errs <- fmt.Errorf("reader %d: classify %d: %d %v", r, i, code, body)
						return
					}
					got := uint64(body["modelVersion"].(float64))
					if got < start {
						errs <- fmt.Errorf("reader %d: STALE CLASSIFIER: modelVersion %d < %d at request start", r, got, start)
						return
					}
					if got < lastClassify {
						errs <- fmt.Errorf("reader %d: classifier version went backwards: %d after %d", r, got, lastClassify)
						return
					}
					lastClassify = got
				case 2: // complete: a region can transiently empty out mid-storm (422)
					start := env.Store.Version()
					code, body := post("/api/complete", map[string]interface{}{
						"region":      regions[(r+i)%len(regions)],
						"ingredients": ingredients[:2],
					})
					if code != http.StatusOK && code != http.StatusUnprocessableEntity {
						errs <- fmt.Errorf("reader %d: complete %d: %d %v", r, i, code, body)
						return
					}
					if code != http.StatusOK {
						continue
					}
					got := uint64(body["modelVersion"].(float64))
					if got < start {
						errs <- fmt.Errorf("reader %d: STALE RECOMMENDER: modelVersion %d < %d at request start", r, got, start)
						return
					}
					if got < lastComplete {
						errs <- fmt.Errorf("reader %d: recommender version went backwards: %d after %d", r, got, lastComplete)
						return
					}
					lastComplete = got
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced equivalence: the incrementally-maintained index must be
	// byte-identical to a fresh Build over the mutated corpus.
	fresh := search.Build(env.Store)
	if got, want := srv.Index().CanonicalDump(), fresh.CanonicalDump(); !bytes.Equal(got, want) {
		t.Errorf("live index diverged from fresh Build after stress:\nlive:\n%s\nfresh:\n%s", got, want)
	}

	// Quiesced, both models answer at the corpus head.
	for path, body := range map[string]interface{}{
		"/api/classify": map[string]interface{}{"ingredients": ingredients[:3]},
		"/api/complete": map[string]interface{}{"region": "ITA", "ingredients": ingredients[:2]},
	} {
		code, resp := post(path, body)
		if code != http.StatusOK {
			t.Fatalf("%s after quiesce: %d %v", path, code, resp)
		}
		if v := uint64(resp["modelVersion"].(float64)); v != env.Store.Version() {
			t.Errorf("%s modelVersion %d != corpus head %d after quiesce", path, v, env.Store.Version())
		}
	}
}
