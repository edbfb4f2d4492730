package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
// four requests through the whole Server.Handler() chain — routing, the
// version gate, the envelope fallback, the handler's work and the
// encode — with the request and writer reused, so each count is the
// server's own. Budgets are the counts measured with go1.24 (with
// map-built, indented bodies they were 23, 52, 70 and 30); slack absorbs
// net/http differences between the toolchains CI runs. A count above
// budget+slack is a regression to look at; one below the budget should
// lower it.
func TestHandlerAllocationBudget(t *testing.T) {
	const slack = 3
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	_, h := mutableServer(t)
	for _, c := range []struct {
		name, method, path, body string
		budget                   float64
	}{
		{"recipe", "GET", "/api/recipes/0", "", 11},
		{"search", "GET", "/api/search?q=tomato&limit=10", "", 31},
		{"query_hit", "POST", "/api/query", `{"q":"SELECT region, count(*) FROM recipes GROUP BY region"}`, 49},
		{"pairings", "GET", "/api/ingredients/tomato/pairings", "", 15},
	} {
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
		allocs := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.0f allocs", c.name, allocs)
		if allocs > c.budget+slack {
			t.Errorf("%s %s: %.0f allocations, budget %.0f (+%d slack)", c.method, c.path, allocs, c.budget, slack)
		}
	}
}
