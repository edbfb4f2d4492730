package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"culinary/internal/classify"
	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/recommend"
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
// contract: an acked delete is gone from search, the classifier and the
// recommender on the next request, whose modelVersion is the delete's.
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

	// Classifier and recommender: the stamped modelVersion is the
	// delete's, so the counters they read no longer hold the recipe.
	code, body = do(t, h, "POST", "/api/classify",
		map[string]interface{}{"ingredients": ings})
	if code != http.StatusOK {
		t.Fatalf("classify: %d %v", code, body)
	}
	if mv := uint64(body["modelVersion"].(float64)); mv != deleteVersion {
		t.Errorf("classify modelVersion %d, delete version %d", mv, deleteVersion)
	}
	code, body = do(t, h, "POST", "/api/complete",
		map[string]interface{}{"region": "ITA", "ingredients": ings[:2]})
	if code != http.StatusOK {
		t.Fatalf("complete: %d %v", code, body)
	}
	if mv := uint64(body["modelVersion"].(float64)); mv != deleteVersion {
		t.Errorf("complete modelVersion %d, delete version %d", mv, deleteVersion)
	}
}

// TestModelsFreshOnNextRequest: after an insert, a replacement, a
// delete and a batch, the next /api/classify and /api/complete each
// answer at the acked write's version, with the scores of models built
// from scratch at that version — a classifier trained by TrainView over
// every live recipe, and Complete over the same read — bit for bit.
func TestModelsFreshOnNextRequest(t *testing.T) {
	s, h := mutableServer(t)
	store := s.cfg.Store
	ings := ingredientNames(t, store, 6)
	partial := ings[:2]
	ids := make([]flavor.ID, len(partial))
	for i, name := range partial {
		ids[i], _ = store.Catalog().Lookup(name)
	}
	check := func(write string, ackVersion uint64) {
		t.Helper()
		var (
			preds []classify.Prediction
			sugs  []recommend.Suggestion
			err   error
		)
		store.Read(func(v *recipedb.View) {
			if v.Version != ackVersion {
				t.Fatalf("%s: corpus at version %d, ack said %d", write, v.Version, ackVersion)
			}
			c := classify.New()
			if err = c.TrainView(v, v.RegionRecipes(recipedb.World)); err == nil {
				preds, err = c.Predict(ids)
			}
			if err == nil {
				sugs, err = recommend.Complete(v, s.cfg.Analyzer, recipedb.Italy, ids, recommend.CompleteOptions{K: 5})
			}
		})
		if err != nil {
			t.Fatalf("%s: reference: %v", write, err)
		}

		code, body := do(t, h, "POST", "/api/classify", map[string]interface{}{"ingredients": partial})
		if code != http.StatusOK {
			t.Fatalf("%s: classify: %d %v", write, code, body)
		}
		if mv := uint64(body["modelVersion"].(float64)); mv != ackVersion {
			t.Errorf("%s: classify modelVersion %d, ack %d", write, mv, ackVersion)
		}
		got := body["predictions"].([]interface{})
		if len(got) != min(5, len(preds)) {
			t.Fatalf("%s: %d predictions, reference %d", write, len(got), len(preds))
		}
		for i, raw := range got {
			p := raw.(map[string]interface{})
			if p["region"] != preds[i].Region.Code() ||
				math.Float64bits(p["probability"].(float64)) != math.Float64bits(preds[i].Probability) {
				t.Errorf("%s: prediction %d = %v, reference %s %v", write, i, p, preds[i].Region.Code(), preds[i].Probability)
			}
		}

		code, body = do(t, h, "POST", "/api/complete", map[string]interface{}{"region": "ITA", "ingredients": partial})
		if code != http.StatusOK {
			t.Fatalf("%s: complete: %d %v", write, code, body)
		}
		if mv := uint64(body["modelVersion"].(float64)); mv != ackVersion {
			t.Errorf("%s: complete modelVersion %d, ack %d", write, mv, ackVersion)
		}
		gotSugs := body["suggestions"].([]interface{})
		if len(gotSugs) != len(sugs) {
			t.Fatalf("%s: %d suggestions, reference %d", write, len(gotSugs), len(sugs))
		}
		for i, raw := range gotSugs {
			sg := raw.(map[string]interface{})
			want := sugs[i]
			if sg["ingredient"] != store.Catalog().Ingredient(want.Ingredient).Name ||
				math.Float64bits(sg["score"].(float64)) != math.Float64bits(want.Score) ||
				math.Float64bits(sg["flavorFit"].(float64)) != math.Float64bits(want.FlavorFit) ||
				math.Float64bits(sg["popularity"].(float64)) != math.Float64bits(want.Popularity) {
				t.Errorf("%s: suggestion %d = %v, reference %+v", write, i, sg, want)
			}
		}
	}
	recipe := func(name, region string, ingredients []string) map[string]interface{} {
		return map[string]interface{}{"name": name, "region": region, "source": "Epicurious", "ingredients": ingredients}
	}
	ack := func(write string, code int, body map[string]interface{}, want int) uint64 {
		t.Helper()
		if code != want {
			t.Fatalf("%s: %d %v", write, code, body)
		}
		return uint64(body["version"].(float64))
	}

	code, body := do(t, h, "POST", "/api/recipes", recipe("fresh insert", "ITA", ings[:4]))
	check("insert", ack("insert", code, body, http.StatusCreated))
	id := int(body["id"].(float64))

	replacement := recipe("fresh replacement", "FRA", ings[2:6])
	replacement["id"] = id
	code, body = do(t, h, "POST", "/api/recipes", replacement)
	check("replacement", ack("replacement", code, body, http.StatusOK))

	code, body = do(t, h, "DELETE", "/api/recipes/"+itoa(id), nil)
	check("delete", ack("delete", code, body, http.StatusOK))

	code, body = do(t, h, "POST", "/api/recipes/batch", map[string]interface{}{"recipes": []interface{}{
		recipe("fresh batch one", "ITA", ings[1:5]),
		recipe("fresh batch two", "JPN", ings[:3]),
	}})
	check("batch", ack("batch", code, body, http.StatusOK))
}

// TestModelUnavailable503 pins the degradation contract: a corpus that
// cannot support a model (empty, then single-region) must not abort
// server construction; classify and complete answer a structured 503
// model_unavailable with a Retry-After hint, and answer 200 on the
// first request after the write that makes the corpus support them.
// Substitutes read the catalog only and answer even on an empty corpus.
func TestModelUnavailable503(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	empty := recipedb.NewStore(env.Store.Catalog())
	s, err := New(Config{
		Store:       empty,
		Analyzer:    env.Analyzer,
		NullRecipes: 200,
		Seed:        5,
	})
	if err != nil {
		t.Fatalf("construction over empty corpus must succeed, got %v", err)
	}
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
	if code, body := do(t, h, "GET", "/api/ingredients/basil/substitutes", nil); code != http.StatusOK {
		t.Fatalf("substitutes over an empty corpus: %d %v", code, body)
	}

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
	// but the recommender only needs a non-empty corpus; a region with
	// no recipes is the request's fault (422), not the corpus's.
	for i, name := range []string{"uno pasta", "due pasta"} {
		if code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
			"name": name, "region": "ITA", "source": "Epicurious",
			"ingredients": ings[:2+i%2],
		}); code != http.StatusCreated {
			t.Fatalf("seed upsert: %d %v", code, body)
		}
	}
	assert503("/api/classify", map[string]interface{}{"ingredients": ings[:2]})
	if code, body := do(t, h, "POST", "/api/complete",
		map[string]interface{}{"region": "ITA", "ingredients": ings[:2]}); code != http.StatusOK {
		t.Fatalf("complete over a non-empty corpus: %d %v", code, body)
	}
	if code, body := do(t, h, "POST", "/api/complete",
		map[string]interface{}{"region": "FRA", "ingredients": ings[:2]}); code != http.StatusUnprocessableEntity {
		t.Fatalf("complete for an empty region: %d %v", code, body)
	}

	// A second region unlocks the classifier on the next request; its
	// modelVersion is the corpus version.
	if code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"name": "trois tarte", "region": "FRA", "source": "Epicurious",
		"ingredients": ings[1:3],
	}); code != http.StatusCreated {
		t.Fatalf("second-region upsert: %d %v", code, body)
	}
	code, body := do(t, h, "POST", "/api/classify", map[string]interface{}{"ingredients": ings[:2]})
	if code != http.StatusOK {
		t.Fatalf("classify over two regions: %d %v", code, body)
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
