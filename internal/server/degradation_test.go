package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"syscall"
	"testing"
	"time"

	"culinary/internal/experiments"
	"culinary/internal/httpmw"
	"culinary/internal/storage"
)

// degradedEnv builds a server whose recipedb store writes through to a
// real storage engine opened with a fault injector, so tests can wedge
// the write path under live HTTP traffic.
func degradedEnv(t *testing.T) (http.Handler, *storage.Store, *storage.ErrInjector, *experiments.Env) {
	t.Helper()
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	inj := storage.NewErrInjector()
	db, err := storage.Open(t.TempDir(), storage.Options{
		SyncEveryPut:   true,
		FaultInjection: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := storage.SaveCorpus(db, env.Store); err != nil {
		t.Fatal(err)
	}
	env.Store.SetBackend(db)
	srv, err := New(Config{
		Store:    env.Store,
		Analyzer: env.Analyzer,
		Seed:     3,
		DB:       db,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), db, inj, env
}

// upsertBody builds a valid upsert request against the test catalog.
func upsertBody(env *experiments.Env, slot int, name string) map[string]interface{} {
	rec := env.Store.Recipe(slot)
	ings := make([]string, 0, 2)
	for _, id := range rec.Ingredients[:2] {
		ings = append(ings, env.Store.Catalog().Ingredient(id).Name)
	}
	return map[string]interface{}{
		"id":          slot,
		"name":        name,
		"region":      "ITA",
		"source":      "Epicurious",
		"ingredients": ings,
	}
}

// TestHealthStorageHealthBlock pins the /api/health storage block's
// shape: operators and the load generator key on these field names, so
// renaming any of them is a breaking change this test makes loud.
func TestHealthStorageHealthBlock(t *testing.T) {
	h, _, _, _ := degradedEnv(t)
	code, body := do(t, h, "GET", "/api/health", nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	st, ok := body["storage"].(map[string]interface{})
	if !ok {
		t.Fatalf("health lacks storage block: %v", body)
	}
	for _, key := range []string{"liveBytes", "deadBytes", "checkpoint", "health"} {
		if _, ok := st[key]; !ok {
			t.Errorf("storage missing %q: %v", key, st)
		}
	}
	cp, ok := st["checkpoint"].(map[string]interface{})
	if !ok {
		t.Fatalf("storage block lacks checkpoint: %v", st)
	}
	for _, key := range []string{"version", "bytes", "logBytes", "logRecords", "runs", "lastError"} {
		if _, ok := cp[key]; !ok {
			t.Errorf("storage.checkpoint missing %q: %v", key, cp)
		}
	}
	if cp["bytes"] != st["liveBytes"] || cp["logBytes"] != st["deadBytes"] {
		t.Errorf("liveBytes/deadBytes %v/%v, want the checkpoint's and the log's bytes %v/%v",
			st["liveBytes"], st["deadBytes"], cp["bytes"], cp["logBytes"])
	}
	hb, ok := st["health"].(map[string]interface{})
	if !ok {
		t.Fatalf("storage block lacks health: %v", st)
	}
	for _, key := range []string{
		"state", "lastWriteError", "degradations", "recoveries", "salvagedRecords", "scrub",
	} {
		if _, ok := hb[key]; !ok {
			t.Errorf("storage.health missing %q: %v", key, hb)
		}
	}
	if hb["state"] != "healthy" {
		t.Errorf("state = %v, want healthy", hb["state"])
	}
	scrub, ok := hb["scrub"].(map[string]interface{})
	if !ok {
		t.Fatalf("storage.health lacks scrub: %v", hb)
	}
	for _, key := range []string{
		"running", "runs", "bytesVerified", "corruptionsFound", "salvages", "lastError",
	} {
		if _, ok := scrub[key]; !ok {
			t.Errorf("storage.health.scrub missing %q: %v", key, scrub)
		}
	}
}

// TestMutationsDegradeTo503 drives the full degradation loop over
// HTTP: a write fault wedges the storage engine, after which mutations
// return a structured 503 storage_unavailable with a Retry-After hint
// (not a leaky 500), reads keep serving, /api/health reports the
// degraded state, and once the fault clears recovery restores
// mutations.
func TestMutationsDegradeTo503(t *testing.T) {
	h, db, inj, env := degradedEnv(t)

	// Sanity: mutations work while healthy.
	code, body := do(t, h, "POST", "/api/recipes", upsertBody(env, 1, "healthy dish"))
	if code != http.StatusOK && code != http.StatusCreated {
		t.Fatalf("healthy upsert: %d %v", code, body)
	}

	// Wedge the write path: every subsequent segment write fails as if
	// the disk filled up.
	inj.Arm(syscall.ENOSPC, storage.FaultCreate, storage.FaultWrite, storage.FaultSync)
	code, body = do(t, h, "POST", "/api/recipes", upsertBody(env, 2, "doomed dish"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded upsert: %d %v, want 503", code, body)
	}
	errObj, ok := body["error"].(map[string]interface{})
	if !ok {
		t.Fatalf("503 lacks envelope: %v", body)
	}
	if errObj["code"] != httpmw.CodeStorageUnavailable {
		t.Errorf("code = %v, want %s", errObj["code"], httpmw.CodeStorageUnavailable)
	}

	// Retry-After must be an integer >= 1 (the envelope decode above
	// used do(); re-issue raw to read headers).
	raw := httptest.NewRecorder()
	encoded, _ := json.Marshal(upsertBody(env, 3, "still doomed"))
	req := httptest.NewRequest("POST", "/api/recipes", bytes.NewReader(encoded))
	h.ServeHTTP(raw, req)
	if raw.Code != http.StatusServiceUnavailable {
		t.Fatalf("second degraded upsert: %d", raw.Code)
	}
	secs, err := strconv.Atoi(raw.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want integer >= 1", raw.Header().Get("Retry-After"))
	}

	// Deletes degrade the same way.
	delRec := httptest.NewRecorder()
	h.ServeHTTP(delRec, httptest.NewRequest("DELETE", "/api/recipes/1", nil))
	if delRec.Code != http.StatusServiceUnavailable {
		t.Errorf("degraded delete: %d, want 503", delRec.Code)
	}

	// Reads keep serving while degraded.
	if code, _ := do(t, h, "GET", "/api/recipes/1", nil); code != http.StatusOK {
		t.Errorf("degraded read: %d, want 200", code)
	}
	if code, _ := do(t, h, "POST", "/api/query",
		map[string]string{"q": "SELECT count(*) FROM recipes"}); code != http.StatusOK {
		t.Errorf("degraded query: %d, want 200", code)
	}

	// Health reports the degradation.
	_, hbody := do(t, h, "GET", "/api/health", nil)
	hb := hbody["storage"].(map[string]interface{})["health"].(map[string]interface{})
	if hb["state"] != "readOnly" {
		t.Errorf("state = %v, want readOnly", hb["state"])
	}
	if hb["lastWriteError"] == "" {
		t.Error("lastWriteError empty while degraded")
	}

	// Fault clears; recovery restores mutations.
	inj.Clear()
	if err := db.TryRecoverWrites(); err != nil {
		t.Fatalf("TryRecoverWrites: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body = do(t, h, "POST", "/api/recipes", upsertBody(env, 4, "recovered dish"))
		if code == http.StatusOK || code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered upsert: %d %v", code, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, hbody = do(t, h, "GET", "/api/health", nil)
	hb = hbody["storage"].(map[string]interface{})["health"].(map[string]interface{})
	if hb["state"] != "healthy" {
		t.Errorf("post-recovery state = %v, want healthy", hb["state"])
	}
	if hb["degradations"].(float64) < 1 || hb["recoveries"].(float64) < 1 {
		t.Errorf("transition counters not recorded: %v", hb)
	}
}
