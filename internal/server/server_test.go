package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"culinary/internal/experiments"
)

// testServer builds one server over the shared 5%-scale corpus.
var (
	srvOnce sync.Once
	srv     *Server
	srvErr  error
)

func testHandler(t *testing.T) http.Handler {
	t.Helper()
	srvOnce.Do(func() {
		env, err := experiments.NewEnv(experiments.TestOptions())
		if err != nil {
			srvErr = err
			return
		}
		srv, srvErr = New(Config{
			Store:       env.Store,
			Analyzer:    env.Analyzer,
			NullRecipes: 500,
			Seed:        7,
		})
	})
	if srvErr != nil {
		t.Fatalf("building server: %v", srvErr)
	}
	return srv.Handler()
}

// do issues one request and decodes the JSON response.
func do(t *testing.T, h http.Handler, method, path string, body interface{}) (int, map[string]interface{}) {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	} else {
		reader = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, reader)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var decoded map[string]interface{}
	if rr.Body.Len() > 0 {
		raw := rr.Body.Bytes()
		if err := json.Unmarshal(raw, &decoded); err != nil {
			// Some endpoints return arrays; the mux's own 404/405
			// responses are plain text. Wrap both.
			var arr []interface{}
			if err2 := json.Unmarshal(raw, &arr); err2 != nil {
				decoded = map[string]interface{}{"_raw": string(raw)}
			} else {
				decoded = map[string]interface{}{"_array": arr}
			}
		}
	}
	return rr.Code, decoded
}

func TestHealth(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/health", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
	if body["recipes"].(float64) <= 0 || body["ingredients"].(float64) <= 0 {
		t.Errorf("counts missing: %v", body)
	}
	// The query engine keeps no cache, so health reports none: the
	// response cache's block is the only cache block. The search index
	// keeps no version of its own, so there is no derived block either.
	for _, key := range []string{"queryCache", "derived"} {
		if block, ok := body[key]; ok {
			t.Errorf("health reports a %s block: %v", key, block)
		}
	}
	if _, ok := body["resultCache"].(map[string]interface{}); !ok {
		t.Errorf("health lacks resultCache stats: %v", body)
	}
}

// TestQueryCacheCounters checks the response cache wired through the
// HTTP layer: a statement sent three times runs twice and is answered
// from the response cache the third time, and every request probed the
// response cache.
func TestQueryCacheCounters(t *testing.T) {
	_, h := mutableServer(t)
	stmt := map[string]string{"q": "SELECT count(*) FROM recipes"}
	for i := 0; i < 3; i++ {
		if code, _ := do(t, h, "POST", "/api/query", stmt); code != http.StatusOK {
			t.Fatalf("query status = %d", code)
		}
	}
	_, body := do(t, h, "GET", "/api/health", nil)
	rc := body["resultCache"].(map[string]interface{})
	if rc["hits"] != 1.0 || rc["misses"] != 2.0 || rc["firstSight"] != 1.0 {
		t.Errorf("response cache %v after 3 identical queries, want 1 hit, 2 misses, 1 first sight", rc)
	}
}

// TestResultCacheFirstSightHealth checks the response cache's admission
// rule through the handler and /api/health: requests sent once leave
// the cache empty and are counted as first sights; a request sent three
// times is stored on its second sight and answered from the cache on
// its third; every request is a hit or a miss.
func TestResultCacheFirstSightHealth(t *testing.T) {
	_, h := mutableServer(t)
	query := func(q string) {
		t.Helper()
		if code, body := do(t, h, "POST", "/api/query", map[string]string{"q": q}); code != http.StatusOK {
			t.Fatalf("query %q: %d %v", q, code, body)
		}
	}
	resultCache := func() map[string]interface{} {
		t.Helper()
		_, body := do(t, h, "GET", "/api/health", nil)
		rc, ok := body["resultCache"].(map[string]interface{})
		if !ok {
			t.Fatalf("health lacks resultCache block: %v", body)
		}
		return rc
	}
	for i := 0; i < 300; i++ {
		query(fmt.Sprintf("SELECT id, name FROM recipes WHERE id >= %d LIMIT 5", i))
	}
	rc := resultCache()
	if rc["entries"] != 0.0 || rc["bytes"] != 0.0 || rc["firstSight"] != 300.0 || rc["rejected"] != 0.0 {
		t.Fatalf("after 300 unique statements: %v", rc)
	}
	for i := 0; i < 3; i++ {
		query("SELECT region, count(*) FROM recipes GROUP BY region")
	}
	rc = resultCache()
	if rc["entries"] != 1.0 || rc["hits"] != 1.0 || rc["firstSight"] != 301.0 || rc["hits"].(float64)+rc["misses"].(float64) != 303 {
		t.Fatalf("after one statement sent three times: %v", rc)
	}
}

func TestRegionsList(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/regions", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	arr := body["_array"].([]interface{})
	if len(arr) != 22 {
		t.Fatalf("regions = %d, want 22", len(arr))
	}
	first := arr[0].(map[string]interface{})
	for _, key := range []string{"code", "name", "recipes", "ingredients"} {
		if _, ok := first[key]; !ok {
			t.Errorf("region summary missing %q: %v", key, first)
		}
	}
}

func TestRegionDetail(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/regions/ita", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	if body["code"] != "ITA" {
		t.Errorf("code = %v", body["code"])
	}
	if body["meanRecipeSize"].(float64) <= 0 {
		t.Errorf("meanRecipeSize = %v", body["meanRecipeSize"])
	}
	top := body["topIngredients"].([]interface{})
	if len(top) == 0 {
		t.Error("no top ingredients")
	}
	usage := body["categoryUsage"].(map[string]interface{})
	if len(usage) == 0 {
		t.Error("no category usage")
	}

	code, body = do(t, h, "GET", "/api/regions/NOPE", nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown region status = %d (%v)", code, body)
	}
}

func TestPairingEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/regions/ita/pairing?null=200", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	if body["region"] != "ITA" || body["model"] != "Random" {
		t.Errorf("body = %v", body)
	}
	z := body["z"].(float64)
	if z == 0 {
		t.Error("z-score exactly zero is vanishingly unlikely")
	}
	dir := body["pairing"].(string)
	if z > 0 && !strings.HasPrefix(dir, "uniform") || z < 0 && !strings.HasPrefix(dir, "contrasting") {
		t.Errorf("direction %q inconsistent with z=%g", dir, z)
	}
	// Model selection.
	code, body = do(t, h, "GET", "/api/regions/ita/pairing?null=200&model=frequency", nil)
	if code != http.StatusOK || body["model"] != "Frequency" {
		t.Errorf("frequency model: %d %v", code, body)
	}
	// Bad parameters.
	if code, _ := do(t, h, "GET", "/api/regions/ita/pairing?null=5", nil); code != http.StatusBadRequest {
		t.Errorf("null=5 status = %d", code)
	}
	if code, _ := do(t, h, "GET", "/api/regions/ita/pairing?model=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bogus model status = %d", code)
	}
}

func TestRecipesPagination(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/recipes?region=ITA&limit=5", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	recipes := body["recipes"].([]interface{})
	if len(recipes) != 5 {
		t.Fatalf("page size = %d", len(recipes))
	}
	total := int(body["total"].(float64))
	if total <= 5 {
		t.Fatalf("total = %d", total)
	}
	firstID := recipes[0].(map[string]interface{})["id"].(float64)

	_, body2 := do(t, h, "GET", "/api/recipes?region=ITA&limit=5&offset=5", nil)
	recipes2 := body2["recipes"].([]interface{})
	if recipes2[0].(map[string]interface{})["id"].(float64) == firstID {
		t.Error("offset did not advance the page")
	}

	for _, bad := range []string{"limit=0", "limit=abc", "offset=-1", "region=XX"} {
		if code, _ := do(t, h, "GET", "/api/recipes?"+bad, nil); code != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", bad, code)
		}
	}
}

func TestRecipeByID(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/recipes/0", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	rec := body["recipe"].(map[string]interface{})
	if rec["name"] == "" || len(rec["ingredients"].([]interface{})) < 2 {
		t.Errorf("recipe = %v", rec)
	}
	if _, ok := body["pairingScore"]; !ok {
		t.Error("missing pairingScore")
	}
	if code, _ := do(t, h, "GET", "/api/recipes/99999999", nil); code != http.StatusNotFound {
		t.Errorf("big id status = %d", code)
	}
	if code, _ := do(t, h, "GET", "/api/recipes/abc", nil); code != http.StatusNotFound {
		t.Errorf("non-numeric id status = %d", code)
	}
}

func TestIngredientEndpoints(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/ingredients/tomato", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["name"] != "tomato" || body["category"] != "Vegetable" {
		t.Errorf("body = %v", body)
	}
	if body["profileSize"].(float64) <= 0 {
		t.Errorf("profileSize = %v", body["profileSize"])
	}

	code, body = do(t, h, "GET", "/api/ingredients/tomato/pairings?limit=5", nil)
	if code != http.StatusOK {
		t.Fatalf("pairings status = %d", code)
	}
	pairings := body["pairings"].([]interface{})
	if len(pairings) != 5 {
		t.Fatalf("pairings = %d", len(pairings))
	}
	prev := pairings[0].(map[string]interface{})["sharedCompounds"].(float64)
	for _, p := range pairings[1:] {
		cur := p.(map[string]interface{})["sharedCompounds"].(float64)
		if cur > prev {
			t.Error("pairings not sorted by shared compounds")
		}
		prev = cur
	}

	if code, _ := do(t, h, "GET", "/api/ingredients/unobtainium", nil); code != http.StatusNotFound {
		t.Errorf("unknown ingredient status = %d", code)
	}
	// A no-profile additive cannot rank partners.
	code, _ = do(t, h, "GET", "/api/ingredients/cooking%20spray/pairings", nil)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("no-profile pairings status = %d", code)
	}
}

func TestSearchEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/search?q=tomato+garlic&limit=5", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	hits := body["hits"].([]interface{})
	if len(hits) == 0 || len(hits) > 5 {
		t.Fatalf("hits = %d", len(hits))
	}
	if code, _ := do(t, h, "GET", "/api/search", nil); code != http.StatusBadRequest {
		t.Errorf("missing q status = %d", code)
	}
	if code, _ := do(t, h, "GET", "/api/search?q=tomato&region=ZZ", nil); code != http.StatusBadRequest {
		t.Errorf("bad region status = %d", code)
	}
	// Region-restricted results only contain that region.
	_, body = do(t, h, "GET", "/api/search?q=tomato&region=JPN&limit=10", nil)
	for _, hRaw := range body["hits"].([]interface{}) {
		rec := hRaw.(map[string]interface{})["recipe"].(map[string]interface{})
		if rec["region"] != "JPN" {
			t.Errorf("hit outside region: %v", rec["region"])
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "POST", "/api/query",
		queryRequest{Q: "SELECT region, count(*) FROM recipes GROUP BY region ORDER BY count(*) DESC LIMIT 3"})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	cols := body["columns"].([]interface{})
	if len(cols) != 2 || cols[0] != "region" {
		t.Errorf("columns = %v", cols)
	}
	rows := body["rows"].([]interface{})
	if len(rows) != 3 {
		t.Errorf("rows = %d", len(rows))
	}
	// Semantic failure maps to 422.
	code, body = do(t, h, "POST", "/api/query", queryRequest{Q: "SELECT bogus FROM recipes"})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("bad query status = %d (%v)", code, body)
	}
	if code, _ := do(t, h, "POST", "/api/query", queryRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty query status = %d", code)
	}
	req := httptest.NewRequest("POST", "/api/query", strings.NewReader("{not json"))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", rr.Code)
	}
}

func TestClassifyEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "POST", "/api/classify",
		classifyRequest{Ingredients: []string{"soy sauce", "tofu", "seaweed", "rice", "not-a-food"}})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	preds := body["predictions"].([]interface{})
	if len(preds) == 0 || len(preds) > 5 {
		t.Fatalf("predictions = %d", len(preds))
	}
	first := preds[0].(map[string]interface{})
	if first["probability"].(float64) <= 0 {
		t.Errorf("prediction = %v", first)
	}
	unknown := body["unknownIngredients"].([]interface{})
	if len(unknown) != 1 || unknown[0] != "not-a-food" {
		t.Errorf("unknown = %v", unknown)
	}

	if code, _ := do(t, h, "POST", "/api/classify", classifyRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty body status = %d", code)
	}
	code, _ = do(t, h, "POST", "/api/classify", classifyRequest{Ingredients: []string{"nope1", "nope2"}})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("all-unknown status = %d", code)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := testHandler(t)
	if code, _ := do(t, h, "DELETE", "/api/regions", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE status = %d", code)
	}
	if code, _ := do(t, h, "GET", "/api/query", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET query status = %d", code)
	}
}

func TestUnknownPath(t *testing.T) {
	h := testHandler(t)
	if code, _ := do(t, h, "GET", "/api/nope", nil); code != http.StatusNotFound {
		t.Errorf("unknown path status = %d", code)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with empty config succeeded")
	}
}

func TestConcurrentRequests(t *testing.T) {
	h := testHandler(t)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{
				"/api/health",
				"/api/regions",
				fmt.Sprintf("/api/recipes/%d", i),
				"/api/search?q=garlic",
			}
			for _, p := range paths {
				req := httptest.NewRequest("GET", p, nil)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s -> %d", p, rr.Code)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
