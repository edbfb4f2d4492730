package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/httpmw"
	"culinary/internal/recipedb"
)

// cacheTwins builds two servers over one corpus: one with a response
// cache of cacheBytes, one without.
func cacheTwins(t *testing.T, cacheBytes int64) (env *experiments.Env, cached, plain *Server) {
	t.Helper()
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	build := func(bytes int64) *Server {
		s, err := New(Config{Store: env.Store, Analyzer: env.Analyzer, NullRecipes: 200, Seed: 3, ResultCacheBytes: bytes})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return env, build(cacheBytes), build(0)
}

// send serves one request through h and returns the recorded answer.
func send(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// readRequests covers every read route in routes(), plus a miss of
// each kind (a 404, a 400, a 422) that the cache must pass through.
var readRequests = []struct{ method, path, body string }{
	{"GET", "/api/health", ""},
	{"GET", "/api/regions", ""},
	{"GET", "/api/regions/ITA", ""},
	{"GET", "/api/regions/KOR/pairing?null=100", ""},
	{"GET", "/api/recipes?region=ITA&limit=5", ""},
	{"GET", "/api/recipes?limit=3&offset=1", ""},
	{"GET", "/api/recipes/0", ""},
	{"GET", "/api/recipes/3", ""},
	{"GET", "/api/ingredients/tomato", ""},
	{"GET", "/api/ingredients/tomato/pairings?limit=5", ""},
	{"GET", "/api/search?q=tomato&limit=5", ""},
	{"GET", "/api/search?q=twin+stew&limit=5", ""},
	{"POST", "/api/query", `{"q":"SELECT region, count(*) FROM recipes GROUP BY region"}`},
	{"POST", "/api/query", `{"q":"SELECT id, name FROM recipes WHERE has('garlic') LIMIT 5"}`},
	{"POST", "/api/classify", `{"ingredients":["tomato","garlic","basil"]}`},
	{"POST", "/api/complete", `{"region":"ITA","ingredients":["tomato","garlic"]}`},
	{"GET", "/api/ingredients/basil/substitutes", ""},
	{"POST", "/api/taste", `{"ingredients":["tomato","garlic"]}`},
	{"GET", "/api/recipes/99999999", ""},
	{"GET", "/api/search", ""},
	{"POST", "/api/query", `{"q":"SELECT nope FROM recipes"}`},
}

// comparable strips from a health body the block that differs between
// a server with a response cache and one without.
func comparable(t *testing.T, path string, body []byte) []byte {
	t.Helper()
	if path != "/api/health" {
		return body
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("health body: %v", err)
	}
	delete(m, "resultCache")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestResponseCacheMatchesUncached drives a script of inserts,
// replacements, deletes and batches over one corpus and, after every
// step, sends every read route three times — a first sight, an admitted
// miss that stores the answer, a hit — to a server with a response
// cache, and compares each answer with a server without one: status,
// Content-Type, Content-Length, X-Corpus-Version and body.
func TestResponseCacheMatchesUncached(t *testing.T) {
	env, cached, plain := cacheTwins(t, 1<<20)
	store, catalog := env.Store, env.Store.Catalog()
	hc, hp := cached.Handler(), plain.Handler()
	var ids []flavor.ID
	for _, name := range []string{"tomato", "garlic", "basil", "olive oil", "onion", "butter"} {
		id, ok := catalog.Lookup(name)
		if !ok {
			t.Fatalf("no ingredient %q", name)
		}
		ids = append(ids, id)
	}
	regions := []recipedb.Region{recipedb.Italy, recipedb.Korea, recipedb.France}
	check := func(step string) {
		t.Helper()
		for _, rq := range readRequests {
			want := send(hp, rq.method, rq.path, rq.body)
			for i := 0; i < 3; i++ {
				got := send(hc, rq.method, rq.path, rq.body)
				for _, k := range []string{"Content-Type", "Content-Length", CorpusVersionHeader} {
					if k == "Content-Length" && rq.path == "/api/health" {
						continue // its cache counters differ
					}
					if got.Header().Get(k) != want.Header().Get(k) {
						t.Fatalf("%s: %s %s (send %d): %s %q, uncached %q", step, rq.method, rq.path, i+1, k, got.Header().Get(k), want.Header().Get(k))
					}
				}
				if got.Code != want.Code || !bytes.Equal(comparable(t, rq.path, got.Body.Bytes()), comparable(t, rq.path, want.Body.Bytes())) {
					t.Fatalf("%s: %s %s (send %d): %d %s\nuncached: %d %s", step, rq.method, rq.path, i+1, got.Code, got.Body, want.Code, want.Body)
				}
			}
		}
	}
	check("boot")
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recipe := func() (string, recipedb.Region, []flavor.ID) {
			n := 2 + rng.Intn(3)
			perm := rng.Perm(len(ids))[:n]
			ing := make([]flavor.ID, n)
			for i, p := range perm {
				ing[i] = ids[p]
			}
			return fmt.Sprintf("twin stew %d", rng.Intn(1000)), regions[rng.Intn(len(regions))], ing
		}
		for step := 0; step < 12; step++ {
			var err error
			switch op := rng.Intn(4); op {
			case 0: // insert
				name, region, ing := recipe()
				_, err = store.Add(name, region, recipedb.Epicurious, ing)
			case 1: // replace a low slot, the recipes the request list reads among them
				name, region, ing := recipe()
				_, _, _, err = store.Upsert(rng.Intn(8), name, region, recipedb.AllRecipes, ing)
			case 2: // delete (a slot already deleted answers an error and changes nothing)
				store.Remove(rng.Intn(8))
			case 3: // a batch: two upserts and a delete in one version step
				n1, r1, i1 := recipe()
				n2, r2, i2 := recipe()
				store.ApplyBatch([]recipedb.BatchItem{
					{ID: -1, Name: n1, Region: r1, Source: recipedb.Epicurious, Ingredients: i1},
					{ID: rng.Intn(8), Name: n2, Region: r2, Source: recipedb.AllRecipes, Ingredients: i2},
					{Remove: true, ID: rng.Intn(8)},
				})
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			check(fmt.Sprintf("seed %d step %d (version %d)", seed, step, store.Version()))
		}
	}
	st := cached.cache.stats()
	if st.Hits == 0 || st.Invalidated == 0 || st.FirstSight > st.Misses {
		t.Errorf("counters after the script: %+v", st)
	}
}

// TestResponseCacheAdmission pins admission, one-version validity and
// the budget through the handler.
func TestResponseCacheAdmission(t *testing.T) {
	env, s, _ := cacheTwins(t, 1<<20)
	h := s.Handler()
	get := func(path string) {
		t.Helper()
		if rr := send(h, "GET", path, ""); rr.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rr.Code, rr.Body)
		}
	}
	// One-shot requests keep nothing.
	for i := 0; i < 2000; i++ {
		get(fmt.Sprintf("/api/recipes/%d", i))
	}
	if st := s.cache.stats(); st.Entries != 0 || st.Bytes != 0 || st.FirstSight != 2000 || st.Misses != 2000 || st.Hits != 0 {
		t.Fatalf("after 2 000 unique GETs: %+v", st)
	}
	// A second sight admits, a third hits.
	get("/api/regions/ITA")
	get("/api/regions/ITA")
	if st := s.cache.stats(); st.Entries != 1 || st.Hits != 0 || st.Bytes <= 0 {
		t.Fatalf("after a second sight: %+v", st)
	}
	get("/api/regions/ITA")
	if st := s.cache.stats(); st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("after a third sight: %+v", st)
	}
	// A write empties the cache at the next probe, and a key seen at V
	// is a first sight again at V+1.
	get("/api/regions/KOR") // first sight at V
	before := s.cache.stats()
	if _, err := env.Store.Add("admission stew", recipedb.Korea, recipedb.Epicurious, env.Store.Recipe(0).Ingredients); err != nil {
		t.Fatal(err)
	}
	get("/api/regions/KOR")
	st := s.cache.stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidated != before.Invalidated+1 || st.FirstSight != before.FirstSight+1 {
		t.Fatalf("after a write and one probe: %+v (before %+v)", st, before)
	}
	get("/api/regions/KOR")
	if st := s.cache.stats(); st.Entries != 1 {
		t.Fatalf("second sight at the new version stored nothing: %+v", st)
	}

	// A full budget refuses rather than evicts.
	_, small, _ := cacheTwins(t, 4<<10)
	hs := small.Handler()
	var stored []string
	for i := 0; small.cache.stats().Rejected == 0; i++ {
		if i == 100 {
			t.Fatalf("100 admissions into 4 KiB refused nothing: %+v", small.cache.stats())
		}
		path := fmt.Sprintf("/api/recipes/%d", i)
		for j := 0; j < 2; j++ {
			if rr := send(hs, "GET", path, ""); rr.Code != http.StatusOK {
				t.Fatalf("GET %s: %d", path, rr.Code)
			}
		}
		if small.cache.stats().Rejected == 0 {
			stored = append(stored, path)
		}
	}
	st = small.cache.stats()
	if st.Bytes > st.Capacity || st.Entries != len(stored) {
		t.Fatalf("full cache: %+v, %d answers stored", st, len(stored))
	}
	for _, path := range stored {
		send(hs, "GET", path, "")
	}
	if got := small.cache.stats(); got.Hits != int64(len(stored)) || got.Entries != st.Entries {
		t.Fatalf("the stored answers did not all hit after a refusal: %+v (before %+v)", got, st)
	}
}

// TestResponseCacheStalledHandlerStoresNothing: an admitted request's
// handler reads the corpus, stalls while a writer bumps the version,
// reads again and answers. Its answer mixes two versions, so it must
// not be stored, and the next probe must miss.
func TestResponseCacheStalledHandlerStoresNothing(t *testing.T) {
	env, s, _ := cacheTwins(t, 1<<20)
	var stall, release chan struct{}
	s.mux.HandleFunc("GET /test/stall", func(w http.ResponseWriter, r *http.Request) {
		before := env.Store.Len()
		if stall != nil {
			stall <- struct{}{}
			<-release
		}
		s.writeJSON(w, r, http.StatusOK, map[string]int{"before": before, "after": env.Store.Len()})
	})
	h := s.Handler()
	if rr := send(h, "GET", "/test/stall", ""); rr.Code != http.StatusOK { // first sight
		t.Fatalf("first sight: %d", rr.Code)
	}
	stall, release = make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the admitted request
		defer wg.Done()
		if rr := send(h, "GET", "/test/stall", ""); rr.Code != http.StatusOK {
			t.Errorf("admitted request: %d", rr.Code)
		}
	}()
	<-stall
	go func() { // the writer
		defer wg.Done()
		defer close(release)
		if _, err := env.Store.Add("stall stew", recipedb.Italy, recipedb.Epicurious, env.Store.Recipe(0).Ingredients); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	st := s.cache.stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("an answer computed across a write was stored: %+v", st)
	}
	stall = nil
	rr := send(h, "GET", "/test/stall", "")
	if got := s.cache.stats(); got.Hits != st.Hits || got.Misses != st.Misses+1 {
		t.Fatalf("the probe after the write: %+v (before %+v)", got, st)
	}
	var body map[string]int
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body["before"] != body["after"] {
		t.Fatalf("answer after the write: %s (%v)", rr.Body, err)
	}
}

// stallBody is a request body whose first Read blocks until release
// is closed, after telling stall it got there.
type stallBody struct {
	r       io.Reader
	once    sync.Once
	stall   chan<- struct{}
	release <-chan struct{}
}

func (b *stallBody) Read(p []byte) (int, error) {
	b.once.Do(func() {
		b.stall <- struct{}{}
		<-b.release
	})
	return b.r.Read(p)
}

// TestCorpusVersionHeaderIsALowerBound: a read's X-Corpus-Version is
// the version the gate read before the handler ran, so a query stalled
// (here, in reading its body) across a write answers at the newer
// version under the older header. The header never exceeds the body's
// version, with the response cache or without it.
func TestCorpusVersionHeaderIsALowerBound(t *testing.T) {
	env, cached, plain := cacheTwins(t, 1<<20)
	for _, c := range []struct {
		name string
		s    *Server
	}{{"cached", cached}, {"plain", plain}} {
		t.Run(c.name, func(t *testing.T) {
			before := env.Store.Version()
			stall, release := make(chan struct{}), make(chan struct{})
			body := &stallBody{r: strings.NewReader(`{"q":"SELECT count(*) FROM recipes"}`), stall: stall, release: release}
			req := httptest.NewRequest("POST", "/api/query", body)
			rr := httptest.NewRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.s.Handler().ServeHTTP(rr, req)
			}()
			<-stall
			_, err := env.Store.Add("header stew", recipedb.Italy, recipedb.Epicurious, env.Store.Recipe(0).Ingredients)
			close(release)
			<-done
			if err != nil {
				t.Fatal(err)
			}
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rr.Code, rr.Body)
			}
			header, err := strconv.ParseUint(rr.Header().Get(CorpusVersionHeader), 10, 64)
			if err != nil {
				t.Fatalf("bad %s: %v", CorpusVersionHeader, err)
			}
			var resp queryResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %s: %v", rr.Body, err)
			}
			if resp.Version != before+1 {
				t.Fatalf("body version %d, want %d: the query did not run after the write", resp.Version, before+1)
			}
			if header > resp.Version {
				t.Fatalf("%s %d exceeds the body's version %d", CorpusVersionHeader, header, resp.Version)
			}
		})
	}
}

// TestResponseCacheOversizedPostRead: the response cache reads a POST
// read's body into its key, so a body over the traffic stack's cap must
// still reach the handler as the structured 413 and its counter,
// whether the cap trips inside the key or past it, and a body longer
// than a key may hold is answered but never stored.
func TestResponseCacheOversizedPostRead(t *testing.T) {
	stmt := `{"q":"SELECT count(*) FROM recipes"}`
	padded := func(n int) []byte { // the statement, n spaces longer
		return []byte(stmt[:len(stmt)-2] + strings.Repeat(" ", n) + stmt[len(stmt)-2:])
	}
	for _, c := range []struct {
		name    string
		maxBody int64
		body    []byte
		status  int
	}{
		{"capInsideKey", 1 << 10, padded(2 << 10), http.StatusRequestEntityTooLarge},
		{"capPastKey", 32 << 10, padded(40 << 10), http.StatusRequestEntityTooLarge},
		{"longerThanKey", 32 << 10, padded(12 << 10), http.StatusOK},
		// The decoder stops after the first JSON value, so bytes past
		// it never reach the cap, with or without the cache.
		{"trailingPastCap", 1 << 10, []byte(stmt + strings.Repeat(" ", 2<<10)), http.StatusOK},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := armoredServer(t, httpmw.Config{
				ReadRPS: 1000, ReadBurst: 1000, MutationRPS: 1000, MutationBurst: 1000,
				MaxInFlight: 64, RetryAfter: time.Second, MaxBodyBytes: c.maxBody,
			}, -1)
			h := srv.Handler()
			want := doFrom(t, h, "203.0.113.9", "POST", "/api/query", []byte(stmt))
			for i := 0; i < 3; i++ {
				rr := doFrom(t, h, "203.0.113.9", "POST", "/api/query", c.body)
				if rr.Code != c.status {
					t.Fatalf("send %d: status %d, want %d (%s)", i+1, rr.Code, c.status, rr.Body)
				}
				if c.status == http.StatusOK && rr.Body.String() != want.Body.String() {
					t.Fatalf("send %d: %s, unpadded %s", i+1, rr.Body, want.Body)
				}
				if c.status != http.StatusOK {
					if code := envelopeCode(t, rr.Body.Bytes()); code != httpmw.CodeTooLarge {
						t.Fatalf("send %d: envelope code %q", i+1, code)
					}
				}
			}
			st := srv.cache.stats()
			if st.Entries != 0 || st.Hits != 0 || st.Misses != 4 {
				t.Fatalf("cache after three oversized reads and one short one: %+v", st)
			}
			want413 := int64(0)
			if c.status != http.StatusOK {
				want413 = 3
			}
			if n := srv.Traffic().Stats().Rejected413; n != want413 {
				t.Fatalf("Rejected413 = %d, want %d", n, want413)
			}
		})
	}
}
