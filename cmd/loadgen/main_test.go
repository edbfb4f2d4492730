package main

import (
	"encoding/json"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"culinary/internal/experiments"
	"culinary/internal/httpmw"
	"culinary/internal/replica"
	"culinary/internal/server"
	"culinary/internal/storage"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("query=40,read=30,search=20,mutation=10")
	if err != nil {
		t.Fatal(err)
	}
	if mix[shapeQuery] != 40 || mix[shapeRead] != 30 || mix[shapeSearch] != 20 || mix[shapeMutation] != 10 {
		t.Fatalf("mix = %v", mix)
	}

	mix, err = parseMix("searchmut=7,recommend=3")
	if err != nil {
		t.Fatal(err)
	}
	if mix[shapeSearchMut] != 7 || mix[shapeRecommend] != 3 {
		t.Fatalf("freshness mix = %v", mix)
	}

	mix, err = parseMix("read=1")
	if err != nil {
		t.Fatal(err)
	}
	if mix[shapeRead] != 1 || mix[shapeQuery] != 0 {
		t.Fatalf("partial mix = %v", mix)
	}

	for _, bad := range []string{"", "query", "bogus=5", "query=-1", "query=0,read=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) succeeded", bad)
		}
	}
}

func TestPercentile(t *testing.T) {
	r := &report{}
	if r.percentile(99) != 0 {
		t.Fatal("empty report percentile != 0")
	}
	for i := 1; i <= 100; i++ {
		r.latencies = append(r.latencies, time.Duration(i)*time.Millisecond)
	}
	if p := r.percentile(50); p < 49*time.Millisecond || p > 52*time.Millisecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := r.percentile(99); p < 98*time.Millisecond || p > 100*time.Millisecond {
		t.Fatalf("p99 = %v", p)
	}
	if p := r.percentile(100); p != 100*time.Millisecond {
		t.Fatalf("p100 = %v", p)
	}
}

func TestValidEnvelope(t *testing.T) {
	good := [][]byte{
		[]byte(`{"error":{"code":"rate_limited","message":"slow down"}}`),
		[]byte(`{"error":{"code":"overloaded","message":"x"},"extra":1}`),
	}
	for _, g := range good {
		if !validEnvelope(g) {
			t.Errorf("validEnvelope(%s) = false", g)
		}
	}
	bad := [][]byte{
		[]byte(`not json`),
		[]byte(`{}`),
		[]byte(`{"error":"string"}`),
		[]byte(`{"error":{"message":"code missing"}}`),
		[]byte(`404 page not found`),
	}
	for _, b := range bad {
		if validEnvelope(b) {
			t.Errorf("validEnvelope(%s) = true", b)
		}
	}
}

func TestBenchRowsSchema(t *testing.T) {
	r := &report{
		Duration:  2 * time.Second,
		Succeeded: 90,
		Expected4: 6,
		Shed429:   4,
		Shed503:   2,
	}
	for i := 0; i < 90; i++ {
		r.latencies = append(r.latencies, time.Duration(i+1)*time.Millisecond)
	}
	raw, err := r.benchRows("LoadSoak/mixed")
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]interface{}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatalf("benchRows output is not a JSON array: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0]["name"] != "LoadSoak/mixed/p50" || rows[1]["name"] != "LoadSoak/mixed/p99" {
		t.Fatalf("row names = %v, %v", rows[0]["name"], rows[1]["name"])
	}
	for i, row := range rows {
		if row["ns_per_op"].(float64) <= 0 {
			t.Errorf("row %d ns_per_op = %v", i, row["ns_per_op"])
		}
		if row["iterations"].(float64) != 98 { // 90 + 6 + 2 (503s are not 4xx)
			t.Errorf("row %d iterations = %v", i, row["iterations"])
		}
	}
	if rows[0]["shed-rate"].(float64) <= 0 {
		t.Errorf("p50 row shed-rate = %v, want > 0", rows[0]["shed-rate"])
	}
	if rows[0]["error-rate"].(float64) != 0 {
		t.Errorf("p50 row error-rate = %v, want 0", rows[0]["error-rate"])
	}
}

// TestShortSoakAgainstRealServer runs the full closed loop for a
// couple of seconds against an in-process armored server and asserts
// the strict-mode contract holds: traffic flows, every error response
// is enveloped, and the health traffic block is captured.
func TestShortSoakAgainstRealServer(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs a real corpus")
	}
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Store:            env.Store,
		Analyzer:         env.Analyzer,
		NullRecipes:      500,
		Seed:             7,
		ResultCacheBytes: -1,
		Traffic: &httpmw.Config{
			// Tight enough that a 4-worker closed loop trips some 429s
			// (exercising the shed paths), loose enough that plenty of
			// traffic still succeeds.
			ReadRPS:       200,
			ReadBurst:     50,
			MutationRPS:   50,
			MutationBurst: 20,
			MaxInFlight:   32,
			RetryAfter:    time.Second,
			MaxBodyBytes:  1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The default mix includes the searchmut and recommend freshness
	// probes, so this soak also asserts the derived-state contract.
	mix, err := parseMix("query=30,read=25,search=15,mutation=10,searchmut=15,recommend=5")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(loadConfig{
		BaseURL:     ts.URL,
		Duration:    2 * time.Second,
		Concurrency: 4,
		Mix:         mix,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}

	if msgs := rep.violations(); len(msgs) > 0 {
		t.Fatalf("strict-mode violations: %v\nsummary:\n%s", msgs, rep.summary("test"))
	}
	if rep.Succeeded < 20 {
		t.Fatalf("only %d requests succeeded in 2s: %s", rep.Succeeded, rep.summary("test"))
	}
	if rep.percentile(99) <= 0 {
		t.Fatal("no latency distribution recorded")
	}
	if _, ok := rep.HealthTraffic["admitted"]; !ok {
		t.Fatalf("health traffic block missing admitted counter: %v", rep.HealthTraffic)
	}
	if raw, err := rep.benchRows("LoadSoak/test"); err != nil || len(raw) == 0 {
		t.Fatalf("benchRows: %v", err)
	}
}

// TestSoakToleratesDegradedStorage soaks a server whose storage write
// path is wedged by an injected disk-full fault. With
// -tolerate-degraded, mutations land in the Degraded503 bucket (with
// the envelope and Retry-After contracts still enforced) and the run
// stays violation-free; without it the same responses are contract
// violations — the mode is an explicit opt-in, not a loophole.
func TestSoakToleratesDegradedStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs a real corpus")
	}
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
	defer db.Close()
	if err := storage.SaveCorpus(db, env.Store); err != nil {
		t.Fatal(err)
	}
	env.Store.SetBackend(db)
	srv, err := server.New(server.Config{
		Store:    env.Store,
		Analyzer: env.Analyzer,
		Seed:     7,
		DB:       db,
		Traffic: &httpmw.Config{
			// Generous limits: this soak is about the storage
			// degradation path, not the shed paths.
			ReadRPS:      10000,
			MutationRPS:  10000,
			MaxInFlight:  256,
			RetryAfter:   time.Second,
			MaxBodyBytes: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Wedge the write path before any load arrives.
	inj.Arm(syscall.ENOSPC, storage.FaultCreate, storage.FaultWrite, storage.FaultSync)

	// searchmut rides along: a 503-degraded upsert acks nothing, so the
	// probe must skip cleanly instead of reporting staleness.
	mix, err := parseMix("query=30,read=25,search=10,mutation=25,searchmut=10")
	if err != nil {
		t.Fatal(err)
	}
	cfg := loadConfig{
		BaseURL:          ts.URL,
		Duration:         2 * time.Second,
		Concurrency:      4,
		Mix:              mix,
		Seed:             42,
		TolerateDegraded: true,
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if msgs := rep.violations(); len(msgs) > 0 {
		t.Fatalf("tolerate-degraded violations: %v\nsummary:\n%s", msgs, rep.summary("test"))
	}
	if rep.Degraded503 == 0 {
		t.Fatalf("no mutation hit the degraded path: %s", rep.summary("test"))
	}
	if rep.Succeeded == 0 {
		t.Fatalf("reads failed to serve while degraded: %s", rep.summary("test"))
	}

	// The same traffic without the opt-in must be a contract violation.
	cfg.TolerateDegraded = false
	cfg.Duration = 500 * time.Millisecond
	rep, err = runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unexpected5 == 0 {
		t.Fatalf("storage_unavailable accepted without -tolerate-degraded: %s", rep.summary("test"))
	}
	if len(rep.violations()) == 0 {
		t.Fatal("expected strict-mode violations without -tolerate-degraded")
	}
}

// TestReplicaSoak drives the two-node read-your-writes loop fully in
// process: mutations land on a primary, every read shape — including
// the freshness probes, which carry the write ack's X-Corpus-Version
// as X-Min-Version — routes to a follower polling in the background.
// Strict mode must hold end to end: zero stale reads, with transient
// lag absorbed by the contract's single 503 replica_lagging + retry
// (counted in its own bucket, not as a violation).
func TestReplicaSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak needs a real corpus")
	}
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	db, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := storage.SaveCorpus(db, env.Store); err != nil {
		t.Fatal(err)
	}
	env.Store.SetBackend(db)
	primary, err := server.New(server.Config{
		Store:    env.Store,
		Analyzer: env.Analyzer,
		Seed:     7,
		DB:       db,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()
	feedSrv := httptest.NewServer(replica.NewFeed(db, env.Store).Handler())
	defer feedSrv.Close()

	fdb, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fdb.Close()
	f, err := replica.OpenFollower(replica.FollowerConfig{
		Primary: feedSrv.URL,
		DB:      fdb,
		Catalog: env.Catalog,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Close()
	follower, err := server.New(server.Config{
		Store:      f.Corpus(),
		Analyzer:   env.Analyzer,
		Seed:       7,
		Follower:   f,
		PrimaryURL: pts.URL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	mix, err := parseMix("query=25,read=20,search=15,mutation=15,searchmut=25")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(loadConfig{
		BaseURL:     pts.URL,
		ReadBaseURL: fts.URL,
		Duration:    3 * time.Second,
		Concurrency: 4,
		Mix:         mix,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs := rep.violations(); len(msgs) > 0 {
		t.Fatalf("replica soak violations: %v\nsummary:\n%s", msgs, rep.summary("test"))
	}
	if rep.Succeeded < 20 {
		t.Fatalf("only %d requests succeeded: %s", rep.Succeeded, rep.summary("test"))
	}
	if rep.FreshnessViolations != 0 {
		t.Fatalf("stale reads on follower: %s", rep.summary("test"))
	}
	t.Logf("replica soak: %d ok, %d replica_lagging 503s absorbed", rep.Succeeded, rep.ReplicaLagging503)
}
