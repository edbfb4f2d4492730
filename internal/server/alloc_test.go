package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a quarter of what it is given, so allocation counts mean nothing.
var raceEnabled bool

// discardResponse is a reusable http.ResponseWriter that keeps only the
// status, so a measured request allocates no more than the server does.
type discardResponse struct {
	hdr    http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.hdr }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestHandlerAllocationBudget pins the allocations of serve_read_hot's
// four requests, of the region pages and of a classification and a
// completion through the whole
// Server.Handler() chain — routing, the version gate, the envelope
// fallback, the handler's work and the encode — with the request and
// writer reused, so each count is the server's own. The server has no
// response cache, so every request runs its handler; a statement is
// parsed, bound and executed on every run. Budgets are the counts
// measured with go1.24 (with map-built, indented bodies the recipe,
// search and pairings were 23, 52 and 30; walking the region, USA's page
// was 105 and the region list 671; query was query_hit, 49, while the
// server enabled the query engine's result cache, then query_plan_hit,
// 86, while the engine kept a plan cache; every count fell by one,
// search's by four, when the version gate stopped parsing query strings
// that name no minVersion);
// slack absorbs net/http differences between the toolchains CI runs. A
// count above budget+slack is a regression to look at; one below the
// budget should lower it. A region page, a classification and a
// completion read counters, so their counts must not move when the
// region grows. The hit/ cases are the same four reads answered from
// the response cache: the gate, the key and one replayed Write.
func TestHandlerAllocationBudget(t *testing.T) {
	const slack = 3
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s, h := mutableServerCache(t, 0)
	type request struct {
		name, method, path, body string
		budget                   float64
	}
	measureOn := func(h http.Handler, c request) float64 {
		body := strings.NewReader(c.body)
		req := httptest.NewRequest(c.method, c.path, body)
		w := &discardResponse{hdr: http.Header{}}
		serve := func() {
			body.Reset(c.body)
			w.status = 0
			h.ServeHTTP(w, req)
		}
		serve() // warm: the response buffer pool, a first sight
		serve() // stores the answer where there is a response cache
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, w.status)
		}
		return testing.AllocsPerRun(200, serve)
	}
	measure := func(c request) float64 { return measureOn(h, c) }
	counterReads := []request{
		// The two pages differ by the categories each region uses: the
		// encoder allocates per entry of the categoryUsage map.
		{"region_usa", "GET", "/api/regions/USA", "", 58},
		{"region_kor", "GET", "/api/regions/KOR", "", 38},
		{"regions", "GET", "/api/regions", "", 9},
		{"classify", "POST", "/api/classify", `{"ingredients":["tomato","garlic","basil"]}`, 35},
		{"complete", "POST", "/api/complete", `{"region":"USA","ingredients":["tomato","garlic"]}`, 29},
	}
	hot := []request{
		{"recipe", "GET", "/api/recipes/0", "", 10},
		{"search", "GET", "/api/search?q=tomato&limit=10", "", 27},
		{"query", "POST", "/api/query", `{"q":"SELECT region, count(*) FROM recipes GROUP BY region"}`, 99},
		{"pairings", "GET", "/api/ingredients/tomato/pairings", "", 14},
	}
	check := func(c request, allocs float64) {
		t.Helper()
		t.Logf("%s: %.0f allocs", c.name, allocs)
		if allocs > c.budget+slack {
			t.Errorf("%s %s %s: %.0f allocations, budget %.0f (+%d slack)", c.name, c.method, c.path, allocs, c.budget, slack)
		}
	}
	measured := map[string]float64{}
	for _, c := range append(hot, counterReads...) {
		allocs := measure(c)
		measured[c.name] = allocs
		check(c, allocs)
	}
	_, cached := mutableServerCache(t, DefaultResponseCacheBytes)
	for i, name := range []string{"hit/recipe", "hit/search", "hit/query", "hit/pairings"} {
		c := hot[i]
		c.name, c.budget = name, 3
		check(c, measureOn(cached, c))
	}

	store := s.cfg.Store
	n := store.Catalog().Len()
	recs := make([]recipedb.Recipe, 1000)
	for i := range recs {
		recs[i] = recipedb.Recipe{ID: -1, Name: "budget filler", Region: recipedb.USA, Source: recipedb.AllRecipes,
			Ingredients: []flavor.ID{flavor.ID(i % n), flavor.ID((i + 1) % n), flavor.ID((i + 7) % n)}}
	}
	before := store.RegionLen(recipedb.USA)
	if _, err := store.Load(recs); err != nil {
		t.Fatal(err)
	}
	if got := store.RegionLen(recipedb.USA); got != before+len(recs) {
		t.Fatalf("USA holds %d recipes after the load, want %d", got, before+len(recs))
	}
	for _, c := range counterReads {
		if allocs := measure(c); allocs != measured[c.name] {
			t.Errorf("%s %s: %.0f allocations after %d more USA recipes, %.0f before", c.method, c.path, allocs, len(recs), measured[c.name])
		}
	}
}
