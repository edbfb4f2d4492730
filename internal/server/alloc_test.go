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
// writer reused, so each count is the server's own. Budgets are the
// counts measured with go1.24 (with map-built, indented bodies the first
// four were 23, 52, 70 and 30; walking the region, USA's page was 105
// and the region list 671);
// slack absorbs net/http differences between the toolchains CI runs. A
// count above budget+slack is a regression to look at; one below the
// budget should lower it. A region page, a classification and a
// completion read counters, so their counts must not move when the
// region grows.
func TestHandlerAllocationBudget(t *testing.T) {
	const slack = 3
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s, h := mutableServer(t)
	type request struct {
		name, method, path, body string
		budget                   float64
	}
	measure := func(c request) float64 {
		body := strings.NewReader(c.body)
		req := httptest.NewRequest(c.method, c.path, body)
		w := &discardResponse{hdr: http.Header{}}
		serve := func() {
			body.Reset(c.body)
			w.status = 0
			h.ServeHTTP(w, req)
		}
		serve() // warm: the query's result-cache entry, the response buffer pool
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, w.status)
		}
		return testing.AllocsPerRun(200, serve)
	}
	counterReads := []request{
		// The two pages differ by the categories each region uses: the
		// encoder allocates per entry of the categoryUsage map.
		{"region_usa", "GET", "/api/regions/USA", "", 59},
		{"region_kor", "GET", "/api/regions/KOR", "", 39},
		{"regions", "GET", "/api/regions", "", 10},
		{"classify", "POST", "/api/classify", `{"ingredients":["tomato","garlic","basil"]}`, 36},
		{"complete", "POST", "/api/complete", `{"region":"USA","ingredients":["tomato","garlic"]}`, 30},
	}
	measured := map[string]float64{}
	for _, c := range append([]request{
		{"recipe", "GET", "/api/recipes/0", "", 11},
		{"search", "GET", "/api/search?q=tomato&limit=10", "", 31},
		{"query_hit", "POST", "/api/query", `{"q":"SELECT region, count(*) FROM recipes GROUP BY region"}`, 49},
		{"pairings", "GET", "/api/ingredients/tomato/pairings", "", 15},
	}, counterReads...) {
		allocs := measure(c)
		measured[c.name] = allocs
		t.Logf("%s: %.0f allocs", c.name, allocs)
		if allocs > c.budget+slack {
			t.Errorf("%s %s: %.0f allocations, budget %.0f (+%d slack)", c.method, c.path, allocs, c.budget, slack)
		}
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
