package server

import (
	"fmt"
	"net/http"
	"testing"

	"culinary/internal/experiments"
)

// mutableServer builds a private server instance (the shared srvOnce
// corpus must stay immutable for the other endpoint tests).
func mutableServer(t *testing.T) (*Server, http.Handler) {
	return mutableServerCache(t, 1<<20)
}

// mutableServerCache is mutableServer with a response cache of
// cacheBytes (0: none).
func mutableServerCache(t *testing.T, cacheBytes int64) (*Server, http.Handler) {
	t.Helper()
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Store:            env.Store,
		Analyzer:         env.Analyzer,
		NullRecipes:      200,
		Seed:             3,
		ResultCacheBytes: cacheBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Handler()
}

func TestUpsertRecipeEndpoint(t *testing.T) {
	s, h := mutableServer(t)
	before := s.cfg.Store.Len()
	v0 := s.cfg.Store.Version()

	// Insert (no id).
	code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"name":        "posted pasta",
		"region":      "ITA",
		"source":      "Epicurious",
		"ingredients": []string{"tomato", "garlic", "olive oil"},
	})
	if code != http.StatusCreated {
		t.Fatalf("insert: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	if id != before { // new slot appended at the end
		t.Errorf("insert id = %d, want %d", id, before)
	}
	if uint64(body["version"].(float64)) != v0+1 {
		t.Errorf("version = %v, want %d", body["version"], v0+1)
	}

	// The new recipe is immediately queryable.
	code, body = do(t, h, "POST", "/api/query",
		map[string]string{"q": "SELECT name FROM recipes WHERE has('tomato') AND has('garlic') AND has('olive oil')"})
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, body)
	}

	// Replace in place.
	code, body = do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"id":          id,
		"name":        "posted pasta v2",
		"region":      "FRA",
		"source":      "Epicurious",
		"ingredients": []string{"butter", "cream"},
	})
	if code != http.StatusOK {
		t.Fatalf("replace: %d %v", code, body)
	}
	if rec := s.cfg.Store.Recipe(id); rec.Name != "posted pasta v2" {
		t.Errorf("replace did not land: %+v", rec)
	}

	// Validation errors surface as 422.
	for _, bad := range []map[string]interface{}{
		{"name": "x", "region": "NOPE", "source": "Epicurious", "ingredients": []string{"tomato", "garlic"}},
		{"name": "x", "region": "ITA", "source": "bad site", "ingredients": []string{"tomato", "garlic"}},
		{"name": "x", "region": "ITA", "source": "Epicurious", "ingredients": []string{"unobtainium", "garlic"}},
		{"name": "x", "region": "ITA", "source": "Epicurious", "ingredients": []string{"garlic"}},
	} {
		if code, body = do(t, h, "POST", "/api/recipes", bad); code != http.StatusUnprocessableEntity {
			t.Errorf("bad payload %v: %d %v", bad, code, body)
		}
	}
	// Out-of-range explicit IDs are 404, not corpus growth.
	code, body = do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"id": 1 << 30, "name": "x", "region": "ITA", "source": "Epicurious",
		"ingredients": []string{"tomato", "garlic"},
	})
	if code != http.StatusNotFound {
		t.Errorf("huge id: %d %v", code, body)
	}
}

// TestUpsertEmptyIngredients422 pins the regression: an empty (or
// absent) ingredients list must be an explicit structured 422, not
// whatever the store's generic validation happens to say.
func TestUpsertEmptyIngredients422(t *testing.T) {
	_, h := mutableServer(t)
	for _, body := range []map[string]interface{}{
		{"name": "x", "region": "ITA", "source": "Epicurious", "ingredients": []string{}},
		{"name": "x", "region": "ITA", "source": "Epicurious"},
	} {
		code, resp := do(t, h, "POST", "/api/recipes", body)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("empty ingredients %v: %d %v", body, code, resp)
		}
		errObj := resp["error"].(map[string]interface{})
		if errObj["code"] != "unprocessable" {
			t.Errorf("error code = %v, want unprocessable", errObj["code"])
		}
		if msg := errObj["message"].(string); msg != "ingredients list is empty" {
			t.Errorf("message = %q", msg)
		}
	}
}

// TestUpsertDeduplicatesIngredients pins the regression: duplicates —
// case variants of one spelling, or spellings resolving to the same
// catalog entity — collapse silently instead of failing the upsert.
func TestUpsertDeduplicatesIngredients(t *testing.T) {
	s, h := mutableServer(t)
	code, body := do(t, h, "POST", "/api/recipes", map[string]interface{}{
		"name":        "deduped pasta",
		"region":      "ITA",
		"source":      "Epicurious",
		"ingredients": []string{"tomato", "Tomato", "TOMATO", "garlic", " tomato ", "olive oil", "garlic"},
	})
	if code != http.StatusCreated {
		t.Fatalf("deduped upsert rejected: %d %v", code, body)
	}
	id := int(body["id"].(float64))
	rec := s.cfg.Store.Recipe(id)
	if len(rec.Ingredients) != 3 {
		t.Fatalf("stored %d ingredients, want 3 (tomato, garlic, olive oil): %v", len(rec.Ingredients), rec.Ingredients)
	}
}

func TestDeleteRecipeEndpoint(t *testing.T) {
	s, h := mutableServer(t)
	before := s.cfg.Store.Len()

	code, body := do(t, h, "DELETE", "/api/recipes/0", nil)
	if code != http.StatusOK {
		t.Fatalf("delete: %d %v", code, body)
	}
	if s.cfg.Store.Len() != before-1 {
		t.Errorf("Len = %d, want %d", s.cfg.Store.Len(), before-1)
	}
	// Deleted recipes 404 on read and on double delete.
	if code, _ = do(t, h, "GET", "/api/recipes/0", nil); code != http.StatusNotFound {
		t.Errorf("read deleted: %d", code)
	}
	if code, _ = do(t, h, "DELETE", "/api/recipes/0", nil); code != http.StatusNotFound {
		t.Errorf("double delete: %d", code)
	}
	if code, _ = do(t, h, "DELETE", fmt.Sprintf("/api/recipes/%d", 1<<30), nil); code != http.StatusNotFound {
		t.Errorf("out of range delete: %d", code)
	}
	if code, _ = do(t, h, "DELETE", "/api/recipes/xyz", nil); code != http.StatusBadRequest {
		t.Errorf("non-numeric delete: %d", code)
	}

	// A count(*) through the cached query path reflects the deletion.
	code, body = do(t, h, "POST", "/api/query", map[string]string{"q": "SELECT count(*) FROM recipes"})
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, body)
	}
	rows := body["rows"].([]interface{})
	got := rows[0].([]interface{})[0].(string)
	if want := fmt.Sprintf("%d", before-1); got != want {
		t.Errorf("count(*) = %s, want %s", got, want)
	}
}
