package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/httpmw"
	"culinary/internal/storage"
)

// doRaw issues one JSON request and returns the raw recorder, for
// assertions on headers alongside the body.
func doRaw(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(raw))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func decodeBody(rr *httptest.ResponseRecorder, into interface{}) error {
	return json.Unmarshal(rr.Body.Bytes(), into)
}

// freshMutableEnv builds an isolated in-memory server (no storage
// backend) for tests that mutate the corpus over HTTP.
func freshMutableEnv(t *testing.T) (http.Handler, *experiments.Env) {
	t.Helper()
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Store:    env.Store,
		Analyzer: env.Analyzer,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), env
}

func batchItem(name string, ings ...string) map[string]interface{} {
	return map[string]interface{}{
		"name":        name,
		"region":      "ITA",
		"source":      "Epicurious",
		"ingredients": ings,
	}
}

func results(t *testing.T, body map[string]interface{}) []map[string]interface{} {
	t.Helper()
	raw, ok := body["results"].([]interface{})
	if !ok {
		t.Fatalf("response lacks results array: %v", body)
	}
	out := make([]map[string]interface{}, len(raw))
	for i, r := range raw {
		out[i], ok = r.(map[string]interface{})
		if !ok {
			t.Fatalf("result %d is not an object: %v", i, r)
		}
	}
	return out
}

func TestBatchEndpointShape(t *testing.T) {
	h, env := freshMutableEnv(t)
	baseVersion := env.Store.Version()

	code, body := do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{
		"recipes": []interface{}{
			batchItem("batch dish one", "tomato", "basil"),
			map[string]interface{}{
				"id": 0, "name": "batch replaced zero", "region": "FRA",
				"source": "AllRecipes", "ingredients": []string{"butter", "cream"},
			},
			batchItem("batch rejected", "tomato", "unobtainium"),
		},
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d body = %v", code, body)
	}
	res := results(t, body)
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	if res[0]["status"] != "created" || res[0]["id"] == nil || res[0]["version"] == nil {
		t.Fatalf("item 0 = %v", res[0])
	}
	if res[1]["status"] != "replaced" || int(res[1]["id"].(float64)) != 0 {
		t.Fatalf("item 1 = %v", res[1])
	}
	if res[2]["status"] != "rejected" || res[2]["code"] != httpmw.CodeUnprocessable {
		t.Fatalf("item 2 = %v", res[2])
	}
	if _, hasID := res[2]["id"]; hasID {
		t.Fatalf("rejected item carries an id: %v", res[2])
	}
	if body["applied"].(float64) != 2 {
		t.Fatalf("applied = %v", body["applied"])
	}
	if uint64(body["version"].(float64)) != baseVersion+2 {
		t.Fatalf("version = %v, want %d", body["version"], baseVersion+2)
	}

	// Re-ingesting item 0 byte-identically (now slot-addressed) keeps it:
	// no version bump, status "kept" at the corpus version the content
	// was verified against.
	createdID := int(res[0]["id"].(float64))
	again := batchItem("batch dish one", "tomato", "basil")
	again["id"] = createdID
	code, body = do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{
		"recipes": []interface{}{again},
	})
	if code != http.StatusOK {
		t.Fatalf("re-ingest status = %d body = %v", code, body)
	}
	res = results(t, body)
	if res[0]["status"] != "kept" || uint64(res[0]["version"].(float64)) != baseVersion+2 {
		t.Fatalf("re-ingest = %v, want kept at version %d", res[0], baseVersion+2)
	}
	if body["applied"].(float64) != 0 {
		t.Fatalf("kept counted as applied: %v", body["applied"])
	}
	if env.Store.Version() != baseVersion+2 {
		t.Fatalf("kept re-ingest bumped corpus version to %d", env.Store.Version())
	}
}

func TestBatchEndpointPerItemCodes(t *testing.T) {
	h, env := freshMutableEnv(t)
	code, body := do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{
		"recipes": []interface{}{
			map[string]interface{}{ // missing name -> bad_request
				"region": "ITA", "source": "Epicurious", "ingredients": []string{"tomato", "basil"},
			},
			map[string]interface{}{ // slot out of range -> not_found
				"id": env.Store.Slots() + 10, "name": "x", "region": "ITA",
				"source": "Epicurious", "ingredients": []string{"tomato", "basil"},
			},
			batchItem("ok neighbor", "tomato", "basil"),
		},
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d body = %v", code, body)
	}
	res := results(t, body)
	if res[0]["status"] != "rejected" || res[0]["code"] != httpmw.CodeBadRequest {
		t.Fatalf("item 0 = %v", res[0])
	}
	if res[1]["status"] != "rejected" || res[1]["code"] != httpmw.CodeNotFound {
		t.Fatalf("item 1 = %v", res[1])
	}
	if res[2]["status"] != "created" {
		t.Fatalf("valid neighbor rejected: %v", res[2])
	}
}

func TestBatchEndpointRequestLimits(t *testing.T) {
	h, _ := freshMutableEnv(t)
	code, body := do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{
		"recipes": []interface{}{},
	})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("empty batch: status = %d body = %v", code, body)
	}
	items := make([]interface{}, DefaultMaxBatchItems+1)
	for i := range items {
		items[i] = batchItem(fmt.Sprintf("limit %d", i), "tomato", "basil")
	}
	code, body = do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{"recipes": items})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("batch of %d: status = %d body = %v", len(items), code, body)
	}
	code, body = do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{"recipes": items[:DefaultMaxBatchItems]})
	if code != http.StatusOK {
		t.Fatalf("batch of %d: status = %d body = %v", DefaultMaxBatchItems, code, body)
	}
	if res := results(t, body); len(res) != DefaultMaxBatchItems || res[DefaultMaxBatchItems-1]["status"] != "created" {
		t.Fatalf("batch of %d: %d results, last %v", DefaultMaxBatchItems, len(res), res[len(res)-1])
	}
}

// TestBatchWedgedStorageSingle503: when the storage engine wedges
// mid-request, the whole batch answers ONE retryable 503
// storage_unavailable envelope with a Retry-After hint — never a
// scatter of per-item generic 500s — and /api/health accounts for it.
func TestBatchWedgedStorageSingle503(t *testing.T) {
	h, db, inj, _ := degradedEnv(t)
	inj.Arm(syscall.EIO, storage.FaultSync, storage.FaultWrite)
	defer inj.Clear()

	rr := doRaw(t, h, "POST", "/api/recipes/batch", map[string]interface{}{
		"recipes": []interface{}{
			batchItem("wedged a", "tomato", "basil"),
			batchItem("wedged b", "butter", "cream"),
			batchItem("wedged c", "tomato", "garlic"),
		},
	})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body = %s", rr.Code, rr.Body.String())
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 lacks Retry-After")
	}
	var env httpmw.Envelope
	if err := decodeBody(rr, &env); err != nil {
		t.Fatalf("non-envelope 503 body: %s", rr.Body.String())
	}
	if env.Error.Code != httpmw.CodeStorageUnavailable {
		t.Fatalf("code = %q, want %q", env.Error.Code, httpmw.CodeStorageUnavailable)
	}
	if db.Health() == storage.HealthHealthy {
		t.Fatal("engine still healthy after injected batch fault")
	}

	code, body := do(t, h, "GET", "/api/health", nil)
	if code != http.StatusOK {
		t.Fatalf("health status = %d", code)
	}
	traffic, ok := body["traffic"].(map[string]interface{})
	if !ok {
		t.Fatalf("health lacks traffic block: %v", body)
	}
	if n, _ := traffic["storageUnavailable503"].(float64); n < 1 {
		t.Fatalf("storageUnavailable503 = %v, want >= 1", traffic["storageUnavailable503"])
	}
}

// TestHealthMutationBatchesBlock pins the health schema the load
// generator and the CI soak gate read: traffic.mutationBatches with the
// coalescing counters, present whether or not traffic accounting is
// armed.
func TestHealthMutationBatchesBlock(t *testing.T) {
	h, _ := freshMutableEnv(t)
	if code, _ := do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{
		"recipes": []interface{}{
			batchItem("stats a", "tomato", "basil"),
			batchItem("stats b", "butter", "cream"),
		},
	}); code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	code, body := do(t, h, "GET", "/api/health", nil)
	if code != http.StatusOK {
		t.Fatalf("health status = %d", code)
	}
	traffic, ok := body["traffic"].(map[string]interface{})
	if !ok {
		t.Fatalf("health lacks traffic block: %v", body)
	}
	mb, ok := traffic["mutationBatches"].(map[string]interface{})
	if !ok {
		t.Fatalf("traffic lacks mutationBatches: %v", traffic)
	}
	for _, key := range []string{"batches", "ops", "coalesced", "p50", "max"} {
		if _, ok := mb[key]; !ok {
			t.Errorf("mutationBatches missing %q: %v", key, mb)
		}
	}
	if mb["batches"].(float64) < 1 || mb["ops"].(float64) < 2 || mb["max"].(float64) < 2 {
		t.Fatalf("implausible mutationBatches: %v", mb)
	}
	if _, ok := traffic["storageUnavailable503"]; !ok {
		t.Fatalf("traffic lacks storageUnavailable503: %v", traffic)
	}
}
