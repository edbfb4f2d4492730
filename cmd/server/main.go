// Command server exposes the culinary database over HTTP — the library's
// equivalent of the paper's public CulinaryDB/FlavorDB web front ends.
//
// Usage:
//
//	server [-addr :8080] [-scale f] [-seed s] [-db DIR]
//	       [-db-sync]
//	       [-max-body-bytes n]
//	       [-rate-limit-rps f] [-rate-limit-mutation-rps f]
//	       [-max-inflight n] [-request-timeout d] [-shutdown-grace d]
//	       [-trusted-proxies cidrs] [-replication-listen addr]
//	       [-replica-of url] [-primary-url url]
//
// Those 15 flags are the whole surface (main_test.go pins the list).
// Fixed, not flags: the pairing endpoint's default null sample (2000),
// the result cache budget (query.DefaultResultCacheBytes), the batch cap
// (server.DefaultMaxBatchItems), the scrub pacing (30s), the
// write-recovery probe period (5s), the checkpoint trigger (the log as
// large as the checkpoint, internal/storage), and the replication log's
// backlog, batch size and long-poll wait (internal/replica).
//
// Replication: with -replication-listen, a -db primary serves its
// corpus's mutation log and snapshots on a dedicated listener. A second
// process started with -replica-of pointing at that listener runs as a
// read replica: it installs the primary's snapshot into its own -db
// store (or resumes from the one it already holds), long-polls the log,
// serves every read endpoint, and answers mutations with 403
// not_primary (Location: -primary-url). Reads carrying X-Min-Version
// (or ?minVersion=) are version-gated: a replica that has not caught
// up to the requested corpus version answers 503 replica_lagging with
// Retry-After instead of a stale result, so clients can read their
// own writes from any replica by echoing the version token a mutation
// ack returned. -trusted-proxies lists load-balancer CIDRs whose
// X-Forwarded-For chains the rate limiter may believe for client
// keying; without it (the default) every request keys on RemoteAddr
// and forged headers are ignored.
//
// The HTTP front is armored for production traffic: per-IP token-bucket
// rate limiting with separate read/mutation budgets (X-RateLimit-*
// headers, 429 + Retry-After on rejection), request bodies capped at
// -max-body-bytes (structured 413), per-request deadlines
// (-request-timeout) propagated into query execution so slow scans
// abort, and an in-flight concurrency gate that admits -max-inflight
// requests and sheds the excess with 503 + Retry-After instead of
// queueing unboundedly. Every 4xx/5xx body is the structured envelope
// {"error":{"code","message"}}.
// The listener runs behind read-header/idle timeouts (no slowloris),
// and SIGTERM/SIGINT drain in-flight requests for up to -shutdown-grace
// before the process exits. /api/health (exempt from limits) reports
// the stack's counters under "traffic".
//
// With -db, the corpus is loaded from (or, when absent, generated and
// saved into) a storage snapshot directory, so restarts skip corpus
// generation; the engine stays open behind /api/health's storage
// statistics, and recipe mutations (POST/DELETE /api/recipes) write
// through to it, so they survive restarts. Requests are answered from
// the in-memory corpus; the engine is read only at boot. -db-sync turns
// on the per-write durability contract: one fdatasync per coalesced
// write group. Once the store's log has grown as large as its
// checkpoint, a background checkpoint writes the corpus out afresh and
// starts an empty log (writes wait for it). The CQL engine's result
// cache is keyed by (normalized statement, corpus version), so a
// mutation fences every older cached result.
//
// No read model lags the corpus. The full-text search index is
// maintained synchronously inside the mutation path, so an acked
// POST/DELETE is visible to the next /api/search, and /api/health
// reports its version and lag under "derived". The cuisine classifier
// and the recommender read the corpus's per-region counters under
// each request's own read; their responses carry "modelVersion", the
// corpus version of that read.
//
// Endpoints (all JSON):
//
//	GET  /api/health
//	GET  /api/regions
//	GET  /api/regions/{code}
//	GET  /api/regions/{code}/pairing?null=N&model=frequency
//	GET  /api/recipes?region=ITA&limit=20&offset=0
//	GET  /api/recipes/{id}
//	POST /api/recipes    {"name": ..., "region": "ITA", "source": ..., "ingredients": [...], "id"?: N}
//	POST /api/recipes/batch  {"recipes": [{...as POST /api/recipes...}, ...]}  (at most 256)
//	DELETE /api/recipes/{id}
//	GET  /api/ingredients/{name}
//	GET  /api/ingredients/{name}/pairings?limit=10
//	GET  /api/ingredients/{name}/substitutes?limit=10
//	GET  /api/search?q=tomato+garlic&mode=all&fuzzy=1&region=ITA
//	POST /api/query      {"q": "SELECT region, count(*) FROM recipes GROUP BY region"}
//	POST /api/classify   {"ingredients": ["soy sauce", "tofu"]}
//	POST /api/complete   {"region": "ITA", "ingredients": ["tomato", "basil"], "k"?: N}
//	POST /api/taste      {"ingredients": ["soy sauce", "tofu"], "k"?: N}
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/httpmw"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/replica"
	"culinary/internal/server"
	"culinary/internal/storage"
	"culinary/internal/synth"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		scale  = flag.Float64("scale", 0.25, "corpus scale factor (1.0 = full 45,772 recipes)")
		seed   = flag.Uint64("seed", 20180416, "master seed")
		dbDir  = flag.String("db", "", "storage snapshot directory (load if present, else generate and save)")
		dbSync = flag.Bool("db-sync", false, "fsync every write (group-committed; durable but slower)")

		replListen = flag.String("replication-listen", "", "dedicated listener address for the replication feed (primary mode; requires -db)")
		replicaOf  = flag.String("replica-of", "", "primary replication feed base URL; run as a read replica with -db as its own store")
		primaryURL = flag.String("primary-url", "", "primary's public API base URL, advertised in not_primary redirects (replica mode)")

		trustedCIDR = flag.String("trusted-proxies", "", "comma-separated proxy CIDRs whose X-Forwarded-For chains key the rate limiter (empty: key on RemoteAddr)")

		maxBody    = flag.Int64("max-body-bytes", 1<<20, "request body size cap; oversized bodies get a structured 413 (0 disables)")
		readRPS    = flag.Float64("rate-limit-rps", 500, "per-IP rate limit for read traffic, requests/second (burst 2x; 0 disables)")
		mutRPS     = flag.Float64("rate-limit-mutation-rps", 100, "per-IP rate limit for corpus mutations, requests/second (burst 2x; 0 disables)")
		maxInf     = flag.Int("max-inflight", 256, "in-flight request bound; excess load is shed with 503 + Retry-After (0 disables)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline, propagated into query execution (0 disables)")
		grace      = flag.Duration("shutdown-grace", 15*time.Second, "drain window for in-flight requests on SIGTERM/SIGINT")
	)
	flag.Parse()

	// Flag combinations that cannot work fail here, before the catalog
	// and corpus are built.
	switch {
	case *replicaOf != "" && *replListen != "":
		fatal(errors.New("-replica-of and -replication-listen are mutually exclusive: a read replica serves no feed of its own"))
	case *replicaOf != "" && *dbDir == "":
		fatal(errors.New("-replica-of requires -db (the replica's own store)"))
	case *replListen != "" && *dbDir == "":
		fatal(errors.New("-replication-listen requires -db (the feed ships only what the store has made durable)"))
	}
	trustedProxies, err := httpmw.ParseTrustedProxies(*trustedCIDR)
	if err != nil {
		fatal(err)
	}
	dbOpts := storage.Options{
		SyncEveryPut:       *dbSync,
		ScrubInterval:      30 * time.Second, // both files' checksums per tick
		WriteProbeInterval: 5 * time.Second,  // auto-recovery while degraded
	}

	logger := log.New(os.Stderr, "server: ", log.LstdFlags)

	t0 := time.Now()
	fcfg := flavor.DefaultConfig()
	fcfg.Seed = *seed
	catalog, err := flavor.Build(fcfg)
	if err != nil {
		fatal(err)
	}
	analyzer := pairing.NewAnalyzer(catalog)
	catalogTook := time.Since(t0)

	var (
		store    *recipedb.Store
		db       *storage.Store
		follower *replica.Follower
		feed     *replica.Feed
		// Where the corpus's share of the boot went: opening the engine
		// (checkpoint check, log replay) and producing the corpus from it (snapshot
		// load, generate and save, or a follower's snapshot install).
		openTook, loadTook time.Duration
	)
	if *replicaOf != "" {
		// Read-replica mode: -db is the follower's own store, loaded if
		// it holds a corpus and filled from the primary's snapshot if
		// not; the corpus then follows the primary's log.
		t1 := time.Now()
		db, err = storage.Open(*dbDir, dbOpts)
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		openTook = time.Since(t1)
		follower, err = replica.OpenFollower(replica.FollowerConfig{
			Primary: *replicaOf,
			DB:      db,
			Catalog: catalog,
			Logger:  logger,
		})
		if err != nil {
			fatal(err)
		}
		loadTook = time.Since(t1) - openTook
		defer follower.Close() // before db.Close: defers run last in, first out
		follower.Start()
		store = follower.Corpus()
	} else {
		t1 := time.Now()
		store, db, openTook, err = loadOrGenerate(logger, catalog, analyzer, *dbDir, dbOpts, *scale, *seed)
		if err != nil {
			fatal(err)
		}
		loadTook = time.Since(t1) - openTook
		if db != nil {
			defer db.Close()
			// Recipe mutations write through to the open engine, so they
			// survive restarts; concurrent writers share one storage
			// group commit (internal/recipedb/README.md).
			store.SetBackend(db)
		}
	}
	logger.Printf("corpus ready: %d recipes in %v catalog=%dms open=%dms load=%dms", store.Len(),
		time.Since(t0).Round(time.Millisecond), catalogTook.Milliseconds(), openTook.Milliseconds(), loadTook.Milliseconds())

	// The replication feed gets its own listener so replication traffic
	// never competes with client requests for the API listener's
	// connection budget or the traffic stack's rate limits.
	var feedSrv *http.Server
	if *replListen != "" {
		feed = replica.NewFeed(db, store)
		feedSrv = &http.Server{
			Addr:              *replListen,
			Handler:           feed.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		// Shutdown waits for in-flight requests; closing the feed ends
		// the followers' long-polls at once instead of at their timeout.
		feedSrv.RegisterOnShutdown(feed.Close)
		// Bind before serving: a primary that cannot offer its feed
		// (port taken, bad address) must fail loudly at startup, not
		// run on while followers can never bootstrap.
		feedLn, err := net.Listen("tcp", *replListen)
		if err != nil {
			fatal(fmt.Errorf("replication listener: %w", err))
		}
		go func() {
			if err := feedSrv.Serve(feedLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("replication listener: %v", err)
			}
		}()
		logger.Printf("replication feed on %s", *replListen)
	}

	srv, err := server.New(server.Config{
		Store:            store,
		Analyzer:         analyzer,
		Seed:             *seed,
		Logger:           logger,
		DB:               db,
		ResultCacheBytes: query.DefaultResultCacheBytes,
		Follower:         follower,
		PrimaryURL:       *primaryURL,
		Feed:             feed,
		Traffic: &httpmw.Config{
			ReadRPS:        *readRPS,
			ReadBurst:      *readRPS * 2,
			MutationRPS:    *mutRPS,
			MutationBurst:  *mutRPS * 2,
			TrustedProxies: trustedProxies,
			MaxInFlight:    *maxInf,
			RetryAfter:     time.Second,
			MaxBodyBytes:   *maxBody,
			RequestTimeout: *reqTimeout,
		},
	})
	if err != nil {
		fatal(err)
	}

	// A configured http.Server instead of bare ListenAndServe: the
	// read-header and idle timeouts close slowloris connections, and
	// Shutdown drains in-flight requests on SIGTERM so a deploy never
	// drops a response mid-flight. WriteTimeout stays generous — the
	// pairing endpoint legitimately runs for seconds; the per-request
	// deadline middleware bounds handler time far tighter.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills hard
		logger.Printf("shutdown signal received; draining for up to %v", *grace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if feedSrv != nil {
			if err := feedSrv.Shutdown(drainCtx); err != nil {
				logger.Printf("replication listener drain incomplete: %v", err)
			}
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			logger.Printf("drain incomplete: %v", err)
			os.Exit(1)
		}
		logger.Printf("drained cleanly")
	}
}

// loadOrGenerate restores the corpus from a snapshot directory when one
// exists there, generating (and saving, if dbDir is set) otherwise. The
// returned storage engine (nil without -db) stays open so the
// background checkpointer keeps running and /api/health can report it.
// The duration is the share of the call spent in storage.Open.
func loadOrGenerate(logger *log.Logger, catalog *flavor.Catalog, analyzer *pairing.Analyzer,
	dbDir string, dbOpts storage.Options, scale float64, seed uint64) (*recipedb.Store, *storage.Store, time.Duration, error) {
	if dbDir != "" {
		t0 := time.Now()
		db, err := storage.Open(dbDir, dbOpts)
		if err != nil {
			return nil, nil, 0, err
		}
		openTook := time.Since(t0)
		store, err := storage.LoadCorpus(db, catalog)
		if err == nil {
			logger.Printf("loaded snapshot from %s", dbDir)
			return store, db, openTook, nil
		}
		if !errors.Is(err, storage.ErrNotFound) && !errors.Is(err, storage.ErrSnapshot) {
			db.Close()
			return nil, nil, 0, err
		}
		logger.Printf("no usable snapshot in %s (%v); generating", dbDir, err)
		store, gerr := generate(analyzer, scale, seed)
		if gerr != nil {
			db.Close()
			return nil, nil, 0, gerr
		}
		if serr := storage.SaveCorpus(db, store); serr != nil {
			db.Close()
			return nil, nil, 0, fmt.Errorf("saving snapshot: %w", serr)
		}
		logger.Printf("saved snapshot to %s", dbDir)
		return store, db, openTook, nil
	}
	store, err := generate(analyzer, scale, seed)
	return store, nil, 0, err
}

func generate(analyzer *pairing.Analyzer, scale float64, seed uint64) (*recipedb.Store, error) {
	scfg := synth.DefaultConfig()
	scfg.Seed = seed
	scfg.Scale = scale
	return synth.Generate(analyzer, scfg)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "server:", err)
	os.Exit(1)
}
