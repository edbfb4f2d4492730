package server

import (
	"net/http"
	"testing"
)

func TestCompleteEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "POST", "/api/complete",
		completeRequest{Region: "ITA", Ingredients: []string{"tomato", "garlic", "mystery-dust"}, K: 5})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	sugs := body["suggestions"].([]interface{})
	if len(sugs) != 5 {
		t.Fatalf("suggestions = %d", len(sugs))
	}
	first := sugs[0].(map[string]interface{})
	for _, key := range []string{"ingredient", "category", "score", "flavorFit", "popularity"} {
		if _, ok := first[key]; !ok {
			t.Errorf("suggestion missing %q: %v", key, first)
		}
	}
	unknown := body["unknownIngredients"].([]interface{})
	if len(unknown) != 1 || unknown[0] != "mystery-dust" {
		t.Errorf("unknown = %v", unknown)
	}

	// Error paths.
	if code, _ := do(t, h, "POST", "/api/complete", completeRequest{Region: "XX", Ingredients: []string{"tomato"}}); code != http.StatusBadRequest {
		t.Errorf("bad region status = %d", code)
	}
	if code, _ := do(t, h, "POST", "/api/complete", completeRequest{Region: "ITA"}); code != http.StatusUnprocessableEntity {
		t.Errorf("no ingredients status = %d", code)
	}
	code, _ = do(t, h, "POST", "/api/complete", completeRequest{Region: "ITA", Ingredients: []string{"nope"}})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("all-unknown status = %d", code)
	}
}

func TestTasteEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "POST", "/api/taste",
		tasteRequest{Ingredients: []string{"tomato", "basil", "garlic"}, K: 5})
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	taste := body["taste"].([]interface{})
	if len(taste) == 0 || len(taste) > 5 {
		t.Fatalf("taste entries = %d", len(taste))
	}
	prev := taste[0].(map[string]interface{})["weight"].(float64)
	var sum float64
	for _, raw := range taste {
		e := raw.(map[string]interface{})
		w := e["weight"].(float64)
		if w > prev {
			t.Error("taste not sorted by weight")
		}
		if e["descriptor"] == "" {
			t.Error("empty descriptor")
		}
		sum += w
		prev = w
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Errorf("top-5 weights sum to %g", sum)
	}
	if code, _ := do(t, h, "POST", "/api/taste", tasteRequest{}); code != http.StatusUnprocessableEntity {
		t.Errorf("empty taste status = %d", code)
	}
	if code, _ := do(t, h, "POST", "/api/taste", tasteRequest{Ingredients: []string{"nope"}}); code != http.StatusUnprocessableEntity {
		t.Errorf("unknown taste status = %d", code)
	}
}

func TestSubstituteEndpoint(t *testing.T) {
	h := testHandler(t)
	code, body := do(t, h, "GET", "/api/ingredients/basil/substitutes?limit=5", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %v", code, body)
	}
	subs := body["substitutes"].([]interface{})
	if len(subs) != 5 {
		t.Fatalf("substitutes = %d", len(subs))
	}
	prev := subs[0].(map[string]interface{})["similarity"].(float64)
	for _, raw := range subs {
		sub := raw.(map[string]interface{})
		if sub["sameCategory"] != true {
			t.Errorf("default search crossed category: %v", sub)
		}
		cur := sub["similarity"].(float64)
		if cur > prev {
			t.Error("substitutes not sorted")
		}
		prev = cur
	}
	// Cross-category search is opt-in.
	code, _ = do(t, h, "GET", "/api/ingredients/basil/substitutes?anycategory=1", nil)
	if code != http.StatusOK {
		t.Errorf("anycategory status = %d", code)
	}
	// Error paths.
	if code, _ := do(t, h, "GET", "/api/ingredients/unobtainium/substitutes", nil); code != http.StatusNotFound {
		t.Errorf("unknown ingredient status = %d", code)
	}
	for _, limit := range []string{"0", "5abc", "abc"} {
		if code, _ := do(t, h, "GET", "/api/ingredients/basil/substitutes?limit="+limit, nil); code != http.StatusBadRequest {
			t.Errorf("limit=%s status = %d, want 400", limit, code)
		}
	}
	code, _ = do(t, h, "GET", "/api/ingredients/cooking%20spray/substitutes", nil)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("no-profile status = %d", code)
	}
}
