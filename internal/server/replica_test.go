package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/replica"
	"culinary/internal/storage"
)

// doHdr issues one request with optional headers and returns the
// recorder, for tests that assert on response headers.
func doHdr(t *testing.T, h http.Handler, method, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(""))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// TestVersionGate pins the read-your-writes contract on a primary: a
// freshness floor at or below the corpus version passes (and every
// response is stamped with X-Corpus-Version), a floor ahead of it
// answers 503 replica_lagging with a Retry-After hint, and a malformed
// floor is a 400.
func TestVersionGate(t *testing.T) {
	h := testHandler(t)

	rr := doHdr(t, h, "GET", "/api/regions", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("ungated read: %d", rr.Code)
	}
	stamp := rr.Header().Get("X-Corpus-Version")
	cur, err := strconv.ParseUint(stamp, 10, 64)
	if err != nil {
		t.Fatalf("X-Corpus-Version %q: %v", stamp, err)
	}

	// Floor satisfied: header and query-parameter forms both pass.
	rr = doHdr(t, h, "GET", "/api/regions", map[string]string{"X-Min-Version": stamp})
	if rr.Code != http.StatusOK {
		t.Errorf("satisfied floor: %d", rr.Code)
	}
	rr = doHdr(t, h, "GET", "/api/regions?minVersion="+stamp, nil)
	if rr.Code != http.StatusOK {
		t.Errorf("satisfied ?minVersion floor: %d", rr.Code)
	}

	// Floor ahead of the corpus: typed 503 with a retry hint.
	ahead := strconv.FormatUint(cur+1000, 10)
	rr = doHdr(t, h, "GET", "/api/regions", map[string]string{"X-Min-Version": ahead})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("unsatisfied floor: %d", rr.Code)
	}
	if code := envelopeCode(t, rr.Body.Bytes()); code != "replica_lagging" {
		t.Errorf("code = %q, want replica_lagging", code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("replica_lagging without Retry-After")
	}
	rr = doHdr(t, h, "GET", "/api/regions?minVersion="+ahead, nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("unsatisfied ?minVersion floor: %d", rr.Code)
	}

	// Malformed floor: a client bug, not a lag condition.
	rr = doHdr(t, h, "GET", "/api/regions", map[string]string{"X-Min-Version": "not-a-number"})
	if rr.Code != http.StatusBadRequest {
		t.Errorf("malformed floor: %d", rr.Code)
	}
	if code := envelopeCode(t, rr.Body.Bytes()); code != "bad_request" {
		t.Errorf("malformed floor code = %q, want bad_request", code)
	}
}

// followerFixture wires a full primary→follower pair: a storage-backed
// corpus serving a replication feed, and a follower-mode Server over
// the replica's corpus.
type followerFixture struct {
	corpus   *recipedb.Store // primary corpus (mutate to create lag)
	follower *replica.Follower
	handler  http.Handler
}

func newFollowerFixture(t *testing.T) *followerFixture {
	t.Helper()
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatalf("building env: %v", err)
	}
	corpus := recipedb.NewStore(env.Catalog)
	names := env.Catalog.Names()
	for i := 0; i < 8; i++ {
		id1, _ := env.Catalog.Lookup(names[(i*7)%len(names)])
		id2, _ := env.Catalog.Lookup(names[(i*7+3)%len(names)])
		if _, err := corpus.Add(fmt.Sprintf("primary recipe %d", i), recipedb.Italy, recipedb.AllRecipes,
			[]flavor.ID{id1, id2}); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	dir := t.TempDir()
	db, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	if err := storage.SaveCorpus(db, corpus); err != nil {
		t.Fatalf("SaveCorpus: %v", err)
	}
	corpus.SetBackend(db)
	feedSrv := httptest.NewServer(replica.NewFeed(db, corpus).Handler())
	t.Cleanup(feedSrv.Close)

	fdb, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatalf("opening the follower's store: %v", err)
	}
	t.Cleanup(func() { fdb.Close() })
	f, err := replica.OpenFollower(replica.FollowerConfig{
		Primary: feedSrv.URL,
		DB:      fdb,
		Catalog: env.Catalog,
	})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	t.Cleanup(f.Close)

	srv, err := New(Config{
		Store:      f.Corpus(),
		Analyzer:   env.Analyzer,
		DB:         fdb,
		Follower:   f,
		PrimaryURL: "http://primary.example:8080/",
	})
	if err != nil {
		t.Fatalf("building follower server: %v", err)
	}
	t.Cleanup(srv.Close)
	return &followerFixture{corpus: corpus, follower: f, handler: srv.Handler()}
}

// TestFollowerRejectsMutations pins replica mode: every mutation
// endpoint answers 403 not_primary with a Location redirect at the
// primary, while reads keep serving.
func TestFollowerRejectsMutations(t *testing.T) {
	fx := newFollowerFixture(t)
	for _, tc := range []struct{ method, path string }{
		{"POST", "/api/recipes"},
		{"POST", "/api/recipes/batch"},
		{"DELETE", "/api/recipes/0"},
	} {
		rr := doHdr(t, fx.handler, tc.method, tc.path, nil)
		if rr.Code != http.StatusForbidden {
			t.Fatalf("%s %s: %d, want 403", tc.method, tc.path, rr.Code)
		}
		if code := envelopeCode(t, rr.Body.Bytes()); code != "not_primary" {
			t.Errorf("%s %s code = %q, want not_primary", tc.method, tc.path, code)
		}
		want := "http://primary.example:8080" + tc.path
		if loc := rr.Header().Get("Location"); loc != want {
			t.Errorf("%s %s Location = %q, want %q", tc.method, tc.path, loc, want)
		}
	}
	if rr := doHdr(t, fx.handler, "GET", "/api/recipes/0", nil); rr.Code != http.StatusOK {
		t.Errorf("read on follower: %d", rr.Code)
	}
}

// TestFollowerVersionToken walks the full read-your-writes loop: a
// primary write produces version V, a follower read with floor V lags
// with a typed 503 until one replication poll lands it, after which
// the same read serves and stamps a version >= V.
func TestFollowerVersionToken(t *testing.T) {
	fx := newFollowerFixture(t)
	names := fx.corpus.Catalog().Names()
	ing1, _ := fx.corpus.Catalog().Lookup(names[0])
	ing2, _ := fx.corpus.Catalog().Lookup(names[1])
	id, v, _, err := fx.corpus.Upsert(-1, "written on primary", recipedb.Japan, recipedb.AllRecipes, []flavor.ID{ing1, ing2})
	if err != nil {
		t.Fatalf("primary write: %v", err)
	}
	token := strconv.FormatUint(v, 10)
	path := fmt.Sprintf("/api/recipes/%d", id)

	rr := doHdr(t, fx.handler, "GET", path, map[string]string{"X-Min-Version": token})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("lagging read: %d, want 503", rr.Code)
	}
	if code := envelopeCode(t, rr.Body.Bytes()); code != "replica_lagging" {
		t.Errorf("lagging code = %q", code)
	}

	if err := fx.follower.Poll(); err != nil {
		t.Fatalf("poll: %v", err)
	}
	rr = doHdr(t, fx.handler, "GET", path, map[string]string{"X-Min-Version": token})
	if rr.Code != http.StatusOK {
		t.Fatalf("caught-up read: %d (%s)", rr.Code, rr.Body.String())
	}
	got, _ := strconv.ParseUint(rr.Header().Get("X-Corpus-Version"), 10, 64)
	if got < v {
		t.Errorf("stamped version %d below floor %d", got, v)
	}
}

// TestFollowerHealthReplicationBlock asserts /api/health reports the
// follower role, its replication counters, and the follower's own
// store.
func TestFollowerHealthReplicationBlock(t *testing.T) {
	fx := newFollowerFixture(t)
	rr := doHdr(t, fx.handler, "GET", "/api/health", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("health: %d", rr.Code)
	}
	var body struct {
		Replication struct {
			Role     string                 `json:"role"`
			Follower map[string]interface{} `json:"follower"`
		} `json:"replication"`
		Storage map[string]interface{} `json:"storage"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("health body: %v", err)
	}
	if body.Replication.Role != "follower" {
		t.Errorf("role = %q, want follower", body.Replication.Role)
	}
	for _, key := range []string{"primary", "primaryVersion", "version", "lag", "polls", "pollErrors", "applied", "resyncs"} {
		if _, ok := body.Replication.Follower[key]; !ok {
			t.Errorf("follower stats lack %q: %v", key, body.Replication.Follower)
		}
	}
	if body.Storage == nil {
		t.Error("health lacks the follower's storage block")
	}
}
