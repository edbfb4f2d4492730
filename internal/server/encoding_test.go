package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// wireCase is one request of the wire-compatibility battery. pattern is
// the route it must reach.
type wireCase struct {
	pattern      string
	method, path string
	body         string
	status       int
}

// wireCases covers every route in routes() with a success and an error.
// They run in order against one mutable server: the delete removes
// recipe 1, which nothing after it reads.
var wireCases = []wireCase{
	{"GET /api/health", "GET", "/api/health", "", 200},
	{"GET /api/health", "GET", "/api/health?minVersion=abc", "", 400},
	{"GET /api/regions", "GET", "/api/regions", "", 200},
	{"GET /api/regions", "GET", "/api/regions?minVersion=abc", "", 400},
	{"GET /api/regions/{code}", "GET", "/api/regions/ita", "", 200},
	{"GET /api/regions/{code}", "GET", "/api/regions/NOPE", "", 404},
	{"GET /api/regions/{code}/pairing", "GET", "/api/regions/ita/pairing?null=200", "", 200},
	{"GET /api/regions/{code}/pairing", "GET", "/api/regions/ita/pairing?null=5", "", 400},
	{"GET /api/recipes", "GET", "/api/recipes?region=ITA&limit=5", "", 200},
	// Larger than net/http's response buffer: framed by Content-Length,
	// not chunked.
	{"GET /api/recipes", "GET", "/api/recipes?limit=500", "", 200},
	{"GET /api/recipes", "GET", "/api/recipes?offset=99999999", "", 200},
	{"GET /api/recipes", "GET", "/api/recipes?limit=0", "", 400},
	{"GET /api/recipes/{id}", "GET", "/api/recipes/0", "", 200},
	{"GET /api/recipes/{id}", "GET", "/api/recipes/99999999", "", 404},
	{"POST /api/recipes", "POST", "/api/recipes",
		`{"name":"wire pasta","region":"ITA","source":"Epicurious","ingredients":["tomato","garlic"]}`, 201},
	{"POST /api/recipes", "POST", "/api/recipes",
		`{"id":0,"name":"wire pasta","region":"ITA","source":"Epicurious","ingredients":["tomato","basil"]}`, 200},
	{"POST /api/recipes", "POST", "/api/recipes",
		`{"region":"ITA","source":"Epicurious","ingredients":["tomato"]}`, 400},
	{"POST /api/recipes/batch", "POST", "/api/recipes/batch",
		`{"recipes":[{"name":"wire soup","region":"FRA","source":"Epicurious","ingredients":["onion","butter"]},{"name":"x","region":"NOPE"}]}`, 200},
	{"POST /api/recipes/batch", "POST", "/api/recipes/batch", `{"recipes":[]}`, 422},
	{"DELETE /api/recipes/{id}", "DELETE", "/api/recipes/1", "", 200},
	{"DELETE /api/recipes/{id}", "DELETE", "/api/recipes/xyz", "", 400},
	{"GET /api/ingredients/{name}", "GET", "/api/ingredients/tomato", "", 200},
	{"GET /api/ingredients/{name}", "GET", "/api/ingredients/mayonnaise", "", 200},
	{"GET /api/ingredients/{name}", "GET", "/api/ingredients/unobtainium", "", 404},
	{"GET /api/ingredients/{name}/pairings", "GET", "/api/ingredients/tomato/pairings", "", 200},
	{"GET /api/ingredients/{name}/pairings", "GET", "/api/ingredients/cooking%20spray/pairings", "", 422},
	{"GET /api/search", "GET", "/api/search?q=tomato&limit=10", "", 200},
	{"GET /api/search", "GET", "/api/search?q=zzzzqx", "", 200},
	{"GET /api/search", "GET", "/api/search", "", 400},
	{"POST /api/query", "POST", "/api/query", `{"q":"SELECT region, count(*) FROM recipes GROUP BY region"}`, 200},
	{"POST /api/query", "POST", "/api/query", `{"q":"SELECT name FROM recipes WHERE region = 'ITA' AND size > 1000"}`, 200},
	{"POST /api/query", "POST", "/api/query", `{"q":"SELECT bogus FROM recipes"}`, 422},
	{"POST /api/classify", "POST", "/api/classify", `{"ingredients":["soy sauce","tofu","not-a-food"]}`, 200},
	{"POST /api/classify", "POST", "/api/classify", `{}`, 400},
	{"POST /api/complete", "POST", "/api/complete", `{"region":"ITA","ingredients":["tomato","mystery-dust"]}`, 200},
	{"POST /api/complete", "POST", "/api/complete", `{"region":"XX","ingredients":["tomato"]}`, 400},
	{"GET /api/ingredients/{name}/substitutes", "GET", "/api/ingredients/basil/substitutes", "", 200},
	{"GET /api/ingredients/{name}/substitutes", "GET", "/api/ingredients/basil/substitutes?limit=0", "", 400},
	{"POST /api/taste", "POST", "/api/taste", `{"ingredients":["tomato","basil","nope"],"k":3}`, 200},
	{"POST /api/taste", "POST", "/api/taste", `{}`, 422},
}

// TestWireCompatibility pins what typed bodies and the single compact
// encode promise on the wire, for every route, over a real connection:
// the body is compact JSON ending in exactly one newline, framed by a
// Content-Length equal to its length, and a top-level object's keys come
// in sorted order — the order the map[string]interface{} bodies these
// handlers used to build encoded in. Re-encoding the top level as a map
// of raw values must therefore reproduce the body byte for byte; values
// below the top level were structs (or maps) before and are compared as
// they are.
func TestWireCompatibility(t *testing.T) {
	s, h := mutableServer(t)
	ts := httptest.NewServer(h)
	defer ts.Close()

	succeeds, fails := map[string]bool{}, map[string]bool{} // by pattern
	for _, c := range wireCases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if _, pattern := s.mux.Handler(req); pattern != c.pattern {
			t.Fatalf("%s %s routes to %q, case says %q", c.method, c.path, pattern, c.pattern)
		}
		if c.status >= 400 {
			fails[c.pattern] = true
		} else {
			succeeds[c.pattern] = true
		}

		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		name := c.method + " " + c.path
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d: %.200s", name, resp.StatusCode, c.status, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", name, ct)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
				name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if err := checkWireBody(body); err != "" {
			t.Errorf("%s: %s: %.300s", name, err, body)
		}
	}
	for _, rt := range s.routes() {
		if !succeeds[rt.pattern] || !fails[rt.pattern] {
			t.Errorf("route %q: success case %v, error case %v; the battery needs both",
				rt.pattern, succeeds[rt.pattern], fails[rt.pattern])
		}
	}
}

// checkWireBody returns what is wrong with one response body, or "".
func checkWireBody(body []byte) string {
	doc, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.HasSuffix(doc, []byte("\n")) {
		return "body does not end in exactly one newline"
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		return "not JSON: " + err.Error()
	}
	if !bytes.Equal(compact.Bytes(), doc) {
		return "body is not compact"
	}
	if doc[0] != '{' {
		return ""
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(doc, &top); err != nil {
		return "top level: " + err.Error()
	}
	again, err := json.Marshal(top)
	if err != nil {
		return "re-encoding: " + err.Error()
	}
	if !bytes.Equal(again, doc) {
		return "top-level keys are not in the order a map encodes them"
	}
	return ""
}

// TestEmptyListsEncodeAsArrays pins that a list-valued field with
// nothing in it is [] on the wire, never null.
func TestEmptyListsEncodeAsArrays(t *testing.T) {
	h := testHandler(t)
	for _, c := range []struct{ method, path, body, want string }{
		{"GET", "/api/recipes?offset=99999999", "", `"recipes":[]`},
		{"GET", "/api/search?q=zzzzqx", "", `"hits":[]`},
		{"POST", "/api/query", `{"q":"SELECT name FROM recipes WHERE size > 1000"}`, `"rows":[]`},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), c.want) {
			t.Errorf("%s %s: %d %.200s; want %s", c.method, c.path, rr.Code, rr.Body, c.want)
		}
	}
}

// TestWriteJSONEncodeFailure pins that a body JSON cannot carry (here a
// ±Inf Z-score) answers a 500 internal envelope, never a 200 with an
// empty body, and that the endpoint is logged.
func TestWriteJSONEncodeFailure(t *testing.T) {
	var logged bytes.Buffer
	s := &Server{cfg: Config{Logger: log.New(&logged, "", 0)}}
	rr := httptest.NewRecorder()
	s.writeJSON(rr, httptest.NewRequest("GET", "/api/regions/ita/pairing", nil), http.StatusOK,
		pairingResponse{Region: "ITA", Z: math.Inf(1)})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != "internal" {
		t.Errorf("body %q is not an internal envelope", rr.Body)
	}
	if !strings.Contains(logged.String(), "GET /api/regions/ita/pairing") {
		t.Errorf("log %q does not name the endpoint", logged.String())
	}
}
