package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/recipedb"
)

// ingredientNames harvests n resolvable ingredient names from a
// populated corpus (the catalog is shared between stores, so the names
// work against any server built from the same catalog).
func ingredientNames(t *testing.T, store *recipedb.Store, n int) []string {
	t.Helper()
	names := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < store.Len() && len(names) < n; i++ {
		for _, id := range store.Recipe(i).Ingredients {
			name := store.Catalog().Ingredient(id).Name
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
			if len(names) == n {
				break
			}
		}
	}
	if len(names) < n {
		t.Fatalf("corpus yielded only %d ingredient names, need %d", len(names), n)
	}
	return names
}

// searchIDs runs GET /api/search and returns the hit recipe IDs plus
// the index version stamped on the response.
func searchIDs(t *testing.T, h http.Handler, query string) ([]int, uint64) {
	t.Helper()
	code, body := do(t, h, "GET", "/api/search?q="+query, nil)
	if code != http.StatusOK {
		t.Fatalf("search %q: %d %v", query, code, body)
	}
	hits := body["hits"].([]interface{})
	ids := make([]int, len(hits))
	for i, raw := range hits {
		rec := raw.(map[string]interface{})["recipe"].(map[string]interface{})
		ids[i] = int(rec["id"].(float64))
	}
	return ids, uint64(body["version"].(float64))
}

// TestUpsertSearchableNextRequest pins the tentpole's synchronous
// freshness contract: a 2xx-acked upsert is visible to the very next
// /api/search request — no rebuild, no sleep, no retry loop.
func TestUpsertSearchableNextRequest(t *testing.T) {
	s, h := mutableServer(t)
	ings := ingredientNames(t, s.cfg.Store, 3)

	// The name carries a token that appears nowhere else in the corpus
	// (purely alphabetic so the tokenizer keeps it).
	code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"name":        "brambleflux stew",
		"region":      "ITA",
		"source":      "Epicurious",
		"ingredients": ings,
	})
	if code != http.StatusCreated {
		t.Fatalf("upsert: %d %v", code, body)
	}
	ackID := int(body["id"].(float64))
	ackVersion := uint64(body["version"].(float64))

	ids, version := searchIDs(t, h, "brambleflux")
	if len(ids) != 1 || ids[0] != ackID {
		t.Fatalf("search after ack returned %v, want [%d]", ids, ackID)
	}
	if version < ackVersion {
		t.Fatalf("search version %d < acked mutation version %d (stale index)", version, ackVersion)
	}

	// Replacing the recipe re-tokenizes: the old token vanishes, the
	// new one hits — again on the immediately following request.
	code, body = do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"id":          ackID,
		"name":        "quibbleworth stew",
		"region":      "ITA",
		"source":      "Epicurious",
		"ingredients": ings,
	})
	if code != http.StatusOK {
		t.Fatalf("replace: %d %v", code, body)
	}
	if ids, _ := searchIDs(t, h, "brambleflux"); len(ids) != 0 {
		t.Fatalf("old token still matches %v after replace", ids)
	}
	if ids, _ := searchIDs(t, h, "quibbleworth"); len(ids) != 1 || ids[0] != ackID {
		t.Fatalf("new token matches %v, want [%d]", ids, ackID)
	}
}

// TestDeleteVanishesFromDerived pins the other half of the freshness
// contract: an acked delete is gone from search on the next request,
// and gone from the classifier and recommender after the (debounced in
// production, explicit here) rebuild — with the response-stamped
// modelVersion proving the models postdate the delete.
func TestDeleteVanishesFromDerived(t *testing.T) {
	s, h := mutableServer(t)
	ings := ingredientNames(t, s.cfg.Store, 3)

	code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"name":        "snickerdoodlefjord pie",
		"region":      "ITA",
		"source":      "Epicurious",
		"ingredients": ings,
	})
	if code != http.StatusCreated {
		t.Fatalf("upsert: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	if ids, _ := searchIDs(t, h, "snickerdoodlefjord"); len(ids) != 1 {
		t.Fatalf("seed recipe not searchable: %v", ids)
	}

	code, body = do(t, h, "DELETE", "/api/recipes/"+itoa(id), nil)
	if code != http.StatusOK {
		t.Fatalf("delete: %d %v", code, body)
	}
	deleteVersion := uint64(body["version"].(float64))

	// Search: gone on the next request.
	if ids, version := searchIDs(t, h, "snickerdoodlefjord"); len(ids) != 0 {
		t.Fatalf("deleted recipe still searchable: %v", ids)
	} else if version < deleteVersion {
		t.Fatalf("search version %d < delete version %d", version, deleteVersion)
	}

	// Classifier and recommender: gone after the rebuild, and the
	// stamped modelVersion proves the models were trained at (or
	// after) the delete — bounded staleness made visible.
	s.RebuildDerived()
	code, body = do(t, h, "POST", "/api/classify",
		map[string]interface{}{"ingredients": ings})
	if code != http.StatusOK {
		t.Fatalf("classify: %d %v", code, body)
	}
	if mv := uint64(body["modelVersion"].(float64)); mv < deleteVersion {
		t.Errorf("classifier modelVersion %d predates delete version %d", mv, deleteVersion)
	}
	code, body = do(t, h, "POST", "/api/complete",
		map[string]interface{}{"region": "ITA", "ingredients": ings[:2]})
	if code != http.StatusOK {
		t.Fatalf("complete: %d %v", code, body)
	}
	if mv := uint64(body["modelVersion"].(float64)); mv < deleteVersion {
		t.Errorf("recommender modelVersion %d predates delete version %d", mv, deleteVersion)
	}
}

// TestHealthDerivedBlock asserts the monitoring surface: /api/health
// carries a "derived" block with per-model version, saturating lag,
// and rebuild counters.
func TestHealthDerivedBlock(t *testing.T) {
	s, h := mutableServer(t)
	s.RebuildDerived()

	code, body := do(t, h, "GET", "/api/health", nil)
	if code != http.StatusOK {
		t.Fatalf("health: %d %v", code, body)
	}
	corpusVersion := uint64(body["corpusVersion"].(float64))
	derivedBlock, ok := body["derived"].(map[string]interface{})
	if !ok {
		t.Fatalf("health lacks derived block: %v", body)
	}

	searchBlock := derivedBlock["search"].(map[string]interface{})
	if searchBlock["mode"] != "synchronous" {
		t.Errorf("search mode = %v", searchBlock["mode"])
	}
	if v := uint64(searchBlock["version"].(float64)); v != corpusVersion {
		t.Errorf("search version %d != corpus version %d", v, corpusVersion)
	}
	if lag := searchBlock["lag"].(float64); lag != 0 {
		t.Errorf("synchronous index reports lag %v", lag)
	}

	for _, model := range []string{"classifier", "recommender"} {
		block, ok := derivedBlock[model].(map[string]interface{})
		if !ok {
			t.Fatalf("derived block lacks %s: %v", model, derivedBlock)
		}
		if block["available"] != true {
			t.Errorf("%s unavailable after RebuildDerived: %v", model, block)
		}
		if v := uint64(block["version"].(float64)); v != corpusVersion {
			t.Errorf("%s version %d != corpus version %d", model, v, corpusVersion)
		}
		if lag := block["lag"].(float64); lag != 0 {
			t.Errorf("%s lag %v after quiesce", model, lag)
		}
		if rebuilds := block["rebuilds"].(float64); rebuilds < 1 {
			t.Errorf("%s rebuilds = %v, want >= 1", model, rebuilds)
		}
		for _, key := range []string{"failures", "lastError", "lastBuildNs", "totalBuildNs", "intervalMs"} {
			if _, ok := block[key]; !ok {
				t.Errorf("%s block lacks %q: %v", model, key, block)
			}
		}
	}

	// A mutation without a rebuild shows up as lag on the async models
	// and zero lag on the synchronous index.
	ings := ingredientNames(t, s.cfg.Store, 2)
	if code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"name": "lag probe dish", "region": "FRA", "source": "Epicurious",
		"ingredients": ings,
	}); code != http.StatusCreated {
		t.Fatalf("lag-probe upsert: %d %v", code, body)
	}
	_, body = do(t, h, "GET", "/api/health", nil)
	derivedBlock = body["derived"].(map[string]interface{})
	if lag := derivedBlock["search"].(map[string]interface{})["lag"].(float64); lag != 0 {
		t.Errorf("search lag %v after mutation (must stay synchronous)", lag)
	}
	if lag := derivedBlock["classifier"].(map[string]interface{})["lag"].(float64); lag != 1 {
		t.Errorf("classifier lag = %v after one unrebuild mutation, want 1", lag)
	}
	s.RebuildDerived()
	_, body = do(t, h, "GET", "/api/health", nil)
	derivedBlock = body["derived"].(map[string]interface{})
	if lag := derivedBlock["classifier"].(map[string]interface{})["lag"].(float64); lag != 0 {
		t.Errorf("classifier lag = %v after RebuildDerived, want 0", lag)
	}
}

// TestModelUnavailable503 pins the degradation satellite: a corpus
// that cannot train a model (empty, then single-region) must not abort
// server construction; the affected endpoints answer a structured 503
// model_unavailable with a Retry-After hint, and the rebuild path
// recovers the moment the corpus supports the model again.
func TestModelUnavailable503(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	empty := recipedb.NewStore(env.Store.Catalog())
	s, err := New(Config{
		Store:                      empty,
		Analyzer:                   env.Analyzer,
		NullRecipes:                200,
		Seed:                       5,
		ClassifierRebuildInterval:  -1,
		RecommenderRebuildInterval: -1,
	})
	if err != nil {
		t.Fatalf("construction over empty corpus must succeed, got %v", err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()
	ings := ingredientNames(t, env.Store, 4)

	assert503 := func(path string, body interface{}) {
		t.Helper()
		code, resp := do(t, h, "POST", path, body)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s over untrained model: %d %v", path, code, resp)
		}
		errObj := resp["error"].(map[string]interface{})
		if errObj["code"] != "model_unavailable" {
			t.Errorf("%s error code = %v, want model_unavailable", path, errObj["code"])
		}
	}
	assert503("/api/classify", map[string]interface{}{"ingredients": ings[:2]})
	assert503("/api/complete", map[string]interface{}{"region": "ITA", "ingredients": ings[:2]})

	// The Retry-After hint must ride along on the 503.
	raw, _ := json.Marshal(map[string]interface{}{"ingredients": ings[:2]})
	req := httptest.NewRequest("POST", "/api/classify", bytes.NewReader(raw))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("classify: %d", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("model_unavailable response lacks Retry-After header")
	}

	// One region is still not classifiable (nothing to discriminate),
	// but the recommender only needs a non-empty corpus.
	for i, name := range []string{"uno pasta", "due pasta"} {
		if code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
			"name": name, "region": "ITA", "source": "Epicurious",
			"ingredients": ings[:2+i%2],
		}); code != http.StatusCreated {
			t.Fatalf("seed upsert: %d %v", code, body)
		}
	}
	s.RebuildDerived()
	assert503("/api/classify", map[string]interface{}{"ingredients": ings[:2]})
	if code, body := do(t, h, "POST", "/api/complete",
		map[string]interface{}{"region": "ITA", "ingredients": ings[:2]}); code != http.StatusOK {
		t.Fatalf("complete after non-empty rebuild: %d %v", code, body)
	}

	// A second region unlocks the classifier; its modelVersion matches
	// the corpus version it was rebuilt at.
	if code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"name": "trois tarte", "region": "FRA", "source": "Epicurious",
		"ingredients": ings[1:3],
	}); code != http.StatusCreated {
		t.Fatalf("second-region upsert: %d %v", code, body)
	}
	s.RebuildDerived()
	code, body := do(t, h, "POST", "/api/classify", map[string]interface{}{"ingredients": ings[:2]})
	if code != http.StatusOK {
		t.Fatalf("classify after two-region rebuild: %d %v", code, body)
	}
	if mv := uint64(body["modelVersion"].(float64)); mv != empty.Version() {
		t.Errorf("classify modelVersion %d != corpus version %d", mv, empty.Version())
	}
}

// itoa avoids importing strconv just for test paths.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestSearchHitsRenderTheVersionTheyRanked pins the one-epoch guarantee
// of /api/search: a hit's recipe body is the recipe the ranking matched,
// and "version" is the corpus version of both. A writer flips one recipe
// between a name that matches the query and one that does not, so every
// version has a known answer; a handler that ranked under the index lock
// and fetched the bodies afterwards returns a hit named "plain soup" (or
// a tombstone) under a version that predates the rename.
func TestSearchHitsRenderTheVersionTheyRanked(t *testing.T) {
	s, h := mutableServer(t)
	ings := ingredientNames(t, s.cfg.Store, 3)
	upsert := func(id interface{}, name string) (int, map[string]interface{}) {
		fields := map[string]interface{}{"name": name, "region": "ITA", "source": "Epicurious", "ingredients": ings}
		if id != nil {
			fields["id"] = id
		}
		return do(t, h, "POST", "/api/recipes", fields)
	}
	code, body := upsert(nil, "plain soup")
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	id, v0 := int(body["id"].(float64)), uint64(body["version"].(float64))
	// The writer is the only mutator and every rename changes the
	// recipe, so rename k lands at version v0+k: odd k
	// names it "zzyzx stew", even k "plain soup".
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			name := "plain soup"
			if k%2 == 1 {
				name = "zzyzx stew"
			}
			if code, body := upsert(id, name); code != http.StatusOK {
				t.Errorf("rename %d: %d %v", k, code, body)
				return
			}
		}
	}()
	torn, matched := 0, 0
	for i := 0; i < 4000 && torn <= 5; i++ {
		code, body := do(t, h, "GET", "/api/search?q=zzyzx", nil)
		if code != http.StatusOK {
			t.Fatalf("search: %d %v", code, body)
		}
		hits := body["hits"].([]interface{})
		version := uint64(body["version"].(float64))
		if (version-v0)%2 == 0 {
			if len(hits) != 0 {
				torn++
				t.Errorf("version %d names the recipe \"plain soup\", yet the search returned %v", version, hits)
			}
			continue
		}
		matched++
		if len(hits) != 1 {
			torn++
			t.Errorf("version %d names the recipe \"zzyzx stew\", yet the search returned %d hits", version, len(hits))
			continue
		}
		rec := hits[0].(map[string]interface{})["recipe"].(map[string]interface{})
		if int(rec["id"].(float64)) != id || rec["name"] != "zzyzx stew" {
			torn++
			t.Errorf("hit ranked at version %d rendered as %v", version, rec)
		}
	}
	close(stop)
	<-done
	if matched == 0 {
		t.Fatal("no search ever saw the matching name: the writer did not interleave")
	}
}
