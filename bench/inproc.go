//go:build linux

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/httpmw"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/search"
	"culinary/internal/server"
	"culinary/internal/storage"
)

// referenceShare of a traced run's seconds goes to an untraced
// end-to-end phase: the latency the layer budget has to add up to.
const referenceShare = 0.4

// The in-process phase cycles through three modes, one traceSlice
// each, so that all of them see the same cache and corpus states.
// Handler latency per class is taken from the bare slices, the tracing
// overhead is what the recording slices add to it, and the layer
// budget comes from the replaying slices.
const (
	modeBare   int32 = iota // no span is recorded, the seams only pass through
	modeRecord              // root spans and the two seams record
	modeReplay              // and every op's layers are replayed next to it
	numModes
)

const traceSlice = 250 * time.Millisecond

// stack is the serving stack assembled in process the way cmd/server
// assembles it, with two seams the benchmark owns (a timing
// BatchBackend between recipedb and storage, and a last-in-line
// mutation subscriber) and twins of the read-side layers to replay
// requests against.
type stack struct {
	db      *storage.Store
	store   *recipedb.Store
	srv     *server.Server
	handler http.Handler
	logFile *os.File

	admit  http.Handler  // the traffic chain around a handler that does nothing
	engine *query.Engine // twin of the server's engine: same corpus, own caches
	index  *search.Index // twin of the live index, fed the captured batches
	echo   *child        // the benchmark itself in -echo mode

	rec  *recorder
	mode atomic.Int32

	mu        sync.Mutex
	pending   [][]recipedb.Mutation // captured batches the twin index has not seen
	lastWrite time.Duration         // end of the latest WriteBatch, 0 once paired

	bootMs map[string]float64
}

// timedBackend is the seam between recipedb and storage. It satisfies
// recipedb.BatchBackend by delegation and records one span per call
// while the stack is recording.
type timedBackend struct {
	st    *stack
	inner *storage.Store
}

func (b *timedBackend) Put(key string, value []byte) error {
	return b.timed(1, func() error { return b.inner.Put(key, value) })
}

func (b *timedBackend) Delete(key string) error {
	return b.timed(1, func() error { return b.inner.Delete(key) })
}

func (b *timedBackend) WriteBatch(keys []string, values [][]byte, tombstones []bool) []error {
	var errs []error
	b.timed(len(keys), func() error {
		errs = b.inner.WriteBatch(keys, values, tombstones)
		return nil
	})
	return errs
}

func (b *timedBackend) timed(n int, fn func() error) error {
	if b.st.mode.Load() == modeBare {
		return fn()
	}
	rec := b.st.rec
	s := span{kind: spanWriteBatch, n: n, start: rec.now()}
	err := fn()
	s.end = rec.now()
	rec.add(s)
	b.st.mu.Lock()
	b.st.lastWrite = s.end
	b.st.mu.Unlock()
	return err
}

// capture is the mutation subscriber. It registers after server.New,
// so it runs after the live search index and the rebuild nudges, still
// inside the corpus write lock: the stretch from the end of WriteBatch
// to here is recipedb applying the group plus every other subscriber.
func (st *stack) capture(ms []recipedb.Mutation) {
	st.mu.Lock()
	st.pending = append(st.pending, ms)
	if st.mode.Load() != modeBare && st.lastWrite != 0 {
		st.rec.add(span{kind: spanCommit, n: len(ms), start: st.lastWrite, end: st.rec.now()})
	}
	st.lastWrite = 0
	st.mu.Unlock()
}

// patchTwin feeds the captured batches to the twin index, in order.
// It returns the time spent, which stands for the live index's share
// of the commit stretch.
func (st *stack) patchTwin(op uint32, class opClass, record bool) time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total time.Duration
	for _, ms := range st.pending {
		t0 := st.rec.now()
		st.index.ApplyBatch(ms)
		t1 := st.rec.now()
		total += t1 - t0
		if record {
			st.rec.add(span{parent: op, op: op, kind: spanSearchPatch, class: class, probe: true, n: len(ms), start: t0, end: t1})
		}
	}
	st.pending = st.pending[:0]
	return total
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// newStack boots the stack on a copy of the prepared snapshot and
// times each constructor.
func (h *harness) newStack(snap string) (*stack, error) {
	st := &stack{rec: newRecorder(), bootMs: map[string]float64{}}
	dbDir := filepath.Join(h.runDir, "db-inproc")
	if err := copyDir(snap, dbDir); err != nil {
		return nil, err
	}
	t0 := time.Now()
	catalog, err := benchCatalog()
	if err != nil {
		return nil, err
	}
	st.bootMs["flavor.build_ms"] = msSince(t0)
	t0 = time.Now()
	analyzer := pairing.NewAnalyzer(catalog)
	st.bootMs["pairing.analyzer_build_ms"] = msSince(t0)

	t0 = time.Now()
	if st.db, err = storage.Open(dbDir, storage.Options{SyncEveryPut: true}); err != nil {
		return nil, err
	}
	st.bootMs["storage.open_ms"] = msSince(t0)
	t0 = time.Now()
	if st.store, err = storage.LoadCorpus(st.db, catalog); err != nil {
		st.db.Close()
		return nil, err
	}
	st.bootMs["storage.load_corpus_ms"] = msSince(t0)
	st.store.SetBackend(&timedBackend{st: st, inner: st.db})

	// The access log goes to a file, as the child's stderr does.
	if st.logFile, err = os.Create(filepath.Join(h.runDir, "inproc.log")); err != nil {
		st.db.Close()
		return nil, err
	}
	traffic := httpmw.Config{
		ReadRPS: 1e6, ReadBurst: 2e6, MutationRPS: 1e6, MutationBurst: 2e6,
		MaxInFlight: 256, RetryAfter: time.Second, MaxBodyBytes: 1 << 20, RequestTimeout: 30 * time.Second,
	}
	t0 = time.Now()
	st.srv, err = server.New(server.Config{
		Store: st.store, Analyzer: analyzer, NullRecipes: 2000, Seed: corpusSeed,
		Logger: log.New(st.logFile, "server: ", log.LstdFlags), DB: st.db,
		ResultCacheBytes:          query.DefaultResultCacheBytes,
		ClassifierRebuildInterval: 2 * time.Second, RecommenderRebuildInterval: 2 * time.Second,
		Traffic: &traffic,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.bootMs["server.boot_ms"] = msSince(t0)
	st.handler = st.srv.Handler()

	// The twin chain classifies requests the way the server's does.
	traffic.IsMutation = func(r *http.Request) bool {
		return r.Method != http.MethodGet && strings.HasPrefix(r.URL.Path, "/api/recipes")
	}
	traffic.Exempt = func(r *http.Request) bool { return r.URL.Path == "/api/health" }
	st.admit = httpmw.NewTraffic(traffic).Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	st.engine = query.NewEngine(st.store, analyzer)
	st.engine.EnableResultCache(query.DefaultResultCacheBytes)
	t0 = time.Now()
	st.index = search.Build(st.store)
	st.bootMs["search.build_ms"] = msSince(t0)
	st.store.SubscribeBatch(nil, st.capture)
	self, err := os.Executable()
	if err != nil {
		st.close()
		return nil, err
	}
	if st.echo, err = h.spawn(self, func(addr string) []string { return []string{"-echo", addr} }); err != nil {
		st.close()
		return nil, err
	}
	if _, err := st.echo.waitHealthy(30 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) close() {
	if st.echo != nil {
		st.echo.kill()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	st.db.Close()
	if st.logFile != nil {
		st.logFile.Close()
	}
}

// runEcho is the benchmark's own child mode (-echo ADDR). It stands for
// everything the real server adds around the in-process handler: a
// second process, loopback TCP and net/http on both ends. It reads the
// request and answers with as many bytes as the real answer had, under
// the same response headers. It runs until it is killed.
func runEcho(addr string) error {
	filler := bytes.Repeat([]byte{' '}, 1<<16)
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.Header.Get("X-Echo-Bytes"))
		hd := w.Header()
		hd.Set("Content-Type", "application/json")
		hd.Set("X-Corpus-Version", "45772")
		hd.Set("X-Ratelimit-Limit", "2000000")
		hd.Set("X-Ratelimit-Remaining", "1999999")
		hd.Set("X-Ratelimit-Reset", "1")
		for n > 0 {
			k := min(n, len(filler))
			w.Write(filler[:k])
			n -= k
		}
	})
	// The timeouts cmd/server configures: each arms a timer per request.
	srv := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout: 30 * time.Second, WriteTimeout: 2 * time.Minute, IdleTimeout: 2 * time.Minute}
	return srv.ListenAndServe()
}

// handlerDoer calls the handler directly. It keeps the timing of the
// ServeHTTP call itself, without the cost of building the request.
type handlerDoer struct {
	h          http.Handler
	rec        *recorder
	start, end time.Duration
	w          memResponse
}

// memResponse is a minimal http.ResponseWriter.
type memResponse struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.hdr }
func (m *memResponse) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}
func (m *memResponse) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	return m.buf.Write(p)
}

func (m *memResponse) reset() {
	m.hdr = make(http.Header, 8)
	m.status = 0
	m.buf.Reset()
}

func newRequest(method, path, body string) (*http.Request, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://bench"+path, rd)
	if err != nil {
		return nil, err
	}
	req.RemoteAddr = "127.0.0.1:40000"
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

func (d *handlerDoer) do(method, path, body string) (response, error) {
	req, err := newRequest(method, path, body)
	if err != nil {
		return response{}, err
	}
	d.w.reset()
	d.start = d.rec.now()
	d.h.ServeHTTP(&d.w, req)
	d.end = d.rec.now()
	if d.w.status == 0 {
		d.w.status = http.StatusOK
	}
	return response{status: d.w.status, version: parseVersion(d.w.hdr), body: d.w.buf.Bytes()}, nil
}

// tracedOp is what one in-process op left behind for the budget.
type tracedOp struct {
	class      opClass
	mode       int32
	start, end time.Duration // the handler call
	admit      time.Duration
	transport  time.Duration
	probe      time.Duration // the class's layer replay
	layer      layer         // which layer that replay belongs to
	patch      time.Duration // twin index patches after a write
}

// tracedLoop is one client of the in-process phase.
type tracedLoop struct {
	st   *stack
	c    *client
	d    *handlerDoer
	echo *httpDoer
	aw   memResponse
	ops  []tracedOp
	sink int // keeps the replays' results alive
}

func (l *tracedLoop) step(epoch time.Time) sample {
	st, rec := l.st, l.st.rec
	mode := st.mode.Load()
	o, s, smp := l.c.step(epoch)
	t := tracedOp{class: o.class, mode: mode, start: l.d.start, end: l.d.end}
	write := o.class.isWrite()
	var op uint32
	if mode != modeBare {
		op = rec.newID()
		rec.add(span{id: op, op: op, kind: spanHandler, class: o.class, start: t.start, end: t.end, n: smp.bytes})
	}
	if mode != modeReplay {
		if write {
			st.patchTwin(0, o.class, false) // the twin index must not fall behind
		}
		l.ops = append(l.ops, t)
		return smp
	}
	probe := func(kind spanKind, fn func()) time.Duration {
		sp := span{parent: op, op: op, kind: kind, class: o.class, probe: true, start: rec.now()}
		fn()
		sp.end = rec.now()
		rec.add(sp)
		return sp.dur()
	}

	// The same request through loopback and net/http, to a handler that
	// does nothing and answers with as many bytes.
	t.transport = probe(spanTransport, func() {
		l.echo.echoBytes = smp.bytes
		l.echo.do(o.method, s.path, s.body)
	})
	// The same request through the traffic chain alone.
	if req, err := newRequest(o.method, s.path, s.body); err == nil {
		l.aw.reset()
		t.admit = probe(spanAdmit, func() { st.admit.ServeHTTP(&l.aw, req) })
	}
	switch o.class {
	case classQuery:
		probe(spanQueryParse, func() { query.Parse(o.stmt) })
		t.layer = layerQuery
		t.probe = probe(spanQueryRun, func() {
			if res, err := st.engine.RunContext(context.Background(), o.stmt); err == nil {
				l.sink += len(res.Rows)
			}
		})
	case classRecipeGet:
		t.layer = layerRecipeDB
		t.probe = probe(spanViewRead, func() {
			st.store.Read(func(v *recipedb.View) { l.sink += len(v.Recipe(o.id).Ingredients) })
		})
	case classSearch:
		t.layer = layerSearch
		t.probe = probe(spanSearchQuery, func() {
			l.sink += len(st.index.Search(o.terms, search.Options{Limit: 10, Fuzzy: o.fuzzy}))
		})
	case classRegion:
		t.layer = layerRecipeDB
		t.probe = probe(spanBuildCuisine, func() { l.sink += st.store.BuildCuisine(o.region).NumRecipes() })
	}
	if write {
		t.patch = st.patchTwin(op, o.class, true)
	}
	l.ops = append(l.ops, t)
	return smp
}

// overlap sums how much of [start, end] the sorted, non-overlapping
// spans cover.
func overlap(spans []span, start, end time.Duration) time.Duration {
	i := sort.Search(len(spans), func(i int) bool { return spans[i].end > start })
	var total time.Duration
	for ; i < len(spans) && spans[i].start < end; i++ {
		total += min(spans[i].end, end) - max(spans[i].start, start)
	}
	return total
}

// attributeSeams gives every seam span (WriteBatch, commit stretch) the
// request that caused it. The seams run deep inside the program, where
// the benchmark cannot know which request it is serving; the cause is
// the handler call that contains the span, and of two that do (a
// leader and a writer waiting for it) the one that started first.
func attributeSeams(spans []span) {
	var handlers []int
	for i := range spans {
		if spans[i].kind == spanHandler {
			handlers = append(handlers, i)
		}
	}
	sort.Slice(handlers, func(a, b int) bool { return spans[handlers[a]].start < spans[handlers[b]].start })
	for i := range spans {
		s := &spans[i]
		if s.kind != spanWriteBatch && s.kind != spanCommit {
			continue
		}
		// Handlers that started before the seam span did; with a handful
		// of clients the containing one is among the last few.
		k := sort.Search(len(handlers), func(k int) bool { return spans[handlers[k]].start > s.start })
		for j := max(k-8, 0); j < k; j++ {
			if h := &spans[handlers[j]]; h.end >= s.end {
				s.parent, s.op, s.class = h.id, h.op, h.class
				break
			}
		}
	}
}

// budgets turns the traced ops into per-layer self times. A read op's
// handler time minus its replays is the server's own share. A write
// op's storage and recipedb shares are the parts of its handler call
// that a WriteBatch or a commit stretch was running: with two clients
// one of them leads the group and the other waits for it, and for the
// latency budget both spent that time in those layers.
func (st *stack) budgets(ops []tracedOp) []opBudget {
	var writes, commits []span
	for _, s := range st.rec.spans {
		switch s.kind {
		case spanWriteBatch:
			writes = append(writes, s)
		case spanCommit:
			commits = append(commits, s)
		}
	}
	byStart := func(ss []span) { sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start }) }
	byStart(writes)
	byStart(commits)

	var out []opBudget
	for _, t := range ops {
		if t.mode != modeReplay {
			continue
		}
		b := opBudget{class: t.class}
		handler := t.end - t.start
		b.self[layerTransport] = t.transport
		b.self[layerHTTPMW] = t.admit
		rest := handler - t.admit
		if t.probe > 0 {
			b.self[t.layer] += t.probe
			rest -= t.probe
		}
		if t.class.isWrite() {
			storageT := overlap(writes, t.start, t.end)
			commitT := overlap(commits, t.start, t.end)
			searchT := min(t.patch, commitT)
			b.self[layerStorage] = storageT
			b.self[layerSearch] = searchT
			b.self[layerRecipeDB] = commitT - searchT
			rest -= storageT + commitT
		}
		b.self[layerServer] = max(rest, 0)
		out = append(out, b)
	}
	return out
}

// traceServe is the traced run of a serve_* workload: an untraced
// reference phase against the real server child (end-to-end latency
// per class, and the server's own counters around it), then the same
// op sequences in process with spans.
func (h *harness) traceServe(w *workload, seed int64, seconds float64) (*result, error) {
	ref, err := h.runServe(w, seed, seconds*referenceShare, serveOptions{boots: 1, parseQuery: true})
	if err != nil {
		return nil, err
	}
	st, err := h.newStack(ref.snapshot)
	if err != nil {
		return nil, err
	}
	defer st.close()

	n := w.clientCount()
	v := newVocab(st.store.Catalog())
	tr := &http.Transport{MaxIdleConnsPerHost: n, DisableCompression: true}
	loops := make([]*tracedLoop, n)
	steps := make([]func(time.Time) sample, n)
	for i := range loops {
		d := &handlerDoer{h: st.handler, rec: st.rec}
		loops[i] = &tracedLoop{st: st, d: d,
			c:    newClient(w, newGenerator(w, v, seed, i, n), d),
			echo: &httpDoer{base: st.echo.base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}}
		steps[i] = loops[i].step
	}
	flipDone := make(chan struct{})
	flipStop := make(chan struct{})
	go func() {
		defer close(flipDone)
		tick := time.NewTicker(traceSlice)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				st.mode.Store((st.mode.Load() + 1) % numModes)
			case <-flipStop:
				st.mode.Store(modeBare)
				return
			}
		}
	}()
	traced, err := drive(steps, seconds*(1-referenceShare), func(bool) error { return nil }, nil)
	close(flipStop)
	<-flipDone
	if err != nil {
		return nil, err
	}

	var ops []tracedOp
	failures := ref.failures
	for _, l := range loops {
		ops = append(ops, l.ops...)
		failures = append(failures, l.c.failures...)
	}
	attributeSeams(st.rec.spans)
	budgets := st.budgets(ops)
	if len(budgets) == 0 {
		return nil, errors.New("no traced op completed")
	}
	rows := budgetRows(budgets, func(c opClass) float64 { return 1000 * percentile(ref.latencies(c), 50) })
	if err := h.writeTrace(w, st.rec.spans, rows); err != nil {
		return nil, err
	}

	m := newLayerMetrics()
	for name, ms := range st.bootMs {
		m.set(name, ms)
	}
	st.layerTimes(m, ops, budgets)
	refCounts(m, ref)
	m.set("storage.get_us", st.timeGets(v, loops))
	for _, row := range rows {
		m.set("trace.coverage."+row.class.String(), row.coverage)
	}

	res := &result{Attempted: len(ref.samples) + len(traced.samples) + ref.durability.attempted,
		Failed: ref.failed() + traced.failed() + ref.durability.failed, Metrics: m.values}
	res.Correct = res.Failed == 0
	reportFailures(w, failures)
	return res, nil
}

// layerTimes fills the metrics that come from spans of the in-process
// phase.
func (st *stack) layerTimes(m *layerMetrics, ops []tracedOp, budgets []opBudget) {
	spans := st.rec.spans
	us := func(kind spanKind) float64 { return median(spanDurations(spans, kind, time.Microsecond)) }
	m.set("transport.self_us", us(spanTransport))
	m.set("httpmw.admit_us", us(spanAdmit))
	m.set("query.parse_us", us(spanQueryParse))
	m.set("query.run_us", us(spanQueryRun))
	m.set("recipedb.view_read_us", us(spanViewRead))
	m.set("recipedb.build_cuisine_ms", us(spanBuildCuisine)/1000)
	m.set("recipedb.apply_self_us", us(spanCommit))
	m.set("search.query_us", us(spanSearchQuery))
	m.set("search.patch_us", us(spanSearchPatch))
	m.set("storage.write_batch_us", us(spanWriteBatch))
	var records, commits float64
	for i := range spans {
		if spans[i].kind == spanWriteBatch {
			records += float64(spans[i].n)
			commits++
		}
	}
	if commits > 0 {
		m.set("storage.records_per_commit", records/commits)
	}
	var serverSelf []float64
	for i := range budgets {
		serverSelf = append(serverSelf, float64(budgets[i].self[layerServer])/float64(time.Microsecond))
	}
	m.set("server.self_us", median(serverSelf))

	// Handler latency per class in the bare slices, and what recording
	// adds to it: the per-class ratios weighted by op count.
	var bare, rec [numClasses][]float64
	for _, t := range ops {
		d := float64(t.end-t.start) / float64(time.Microsecond)
		switch t.mode {
		case modeBare:
			bare[t.class] = append(bare[t.class], d)
		case modeRecord:
			rec[t.class] = append(rec[t.class], d)
		}
	}
	var weighted, weight float64
	for c := opClass(0); c < numClasses; c++ {
		if len(bare[c]) == 0 {
			continue
		}
		p50 := median(bare[c])
		m.set("server.handler_us."+c.String(), p50)
		if len(rec[c]) > 0 && p50 > 0 {
			weighted += float64(len(rec[c])) * (median(rec[c])/p50 - 1)
			weight += float64(len(rec[c]))
		}
	}
	if weight > 0 {
		m.set("trace.overhead_share", weighted/weight)
	}
}

// refCounts fills the metrics that come from the reference phase: the
// server's own /api/health counters around the measured stretch, and
// what the clients saw in the answers.
func refCounts(m *layerMetrics, ref *serveResult) {
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	b, a := ref.before, ref.after
	m.set("query.result_cache_hit_ratio", ratio(a.ResultCache.Hits-b.ResultCache.Hits, a.ResultCache.Misses-b.ResultCache.Misses))
	m.set("query.plan_cache_hit_ratio", ratio(a.QueryCache.Hits-b.QueryCache.Hits, a.QueryCache.Misses-b.QueryCache.Misses))
	m.set("httpmw.refused", float64(a.Traffic.Rejected429-b.Traffic.Rejected429+a.Traffic.Shed503-b.Traffic.Shed503))
	if batches := a.Traffic.MutationBatches.Batches - b.Traffic.MutationBatches.Batches; batches > 0 {
		m.set("recipedb.ops_per_batch", float64(a.Traffic.MutationBatches.Ops-b.Traffic.MutationBatches.Ops)/float64(batches))
	}
	m.set("derived.rebuilds", float64(a.Derived.Classifier.Rebuilds-b.Derived.Classifier.Rebuilds+
		a.Derived.Recommender.Rebuilds-b.Derived.Recommender.Rebuilds))
	m.set("derived.rebuild_ms", float64(a.Derived.Classifier.TotalBuildNs-b.Derived.Classifier.TotalBuildNs+
		a.Derived.Recommender.TotalBuildNs-b.Derived.Recommender.TotalBuildNs)/1e6)

	var scanned, rows, payload, bytes float64
	for _, c := range ref.clients {
		scanned += float64(c.scanned)
		rows += float64(c.rows)
		payload += float64(c.payload)
	}
	for _, s := range ref.samples {
		bytes += float64(s.bytes)
	}
	if rows > 0 {
		m.set("query.rows_scanned_per_row", scanned/rows)
	}
	if len(ref.samples) > 0 {
		m.set("server.response_bytes", bytes/float64(len(ref.samples)))
	}
	// Payload counts every acknowledged write of the run, warm-up
	// included, and so does the log growth since boot.
	if payload > 0 {
		grown := a.Storage.LiveBytes + a.Storage.DeadBytes - ref.bootLogBytes
		m.set("storage.disk_bytes_per_user_byte", float64(grown)/payload)
	}
}

// timeGets times storage.Get on the recipes the workload touched. No
// request path reads storage (it is write-through, boot and
// replication only), so this number moves no end-to-end metric; it is
// kept so that a change to the storage read path has its number.
func (st *stack) timeGets(v *vocab, loops []*tracedLoop) float64 {
	ids := append([]int(nil), v.hotIDs...)
	for _, l := range loops {
		for _, id := range l.c.own {
			if id >= 0 {
				ids = append(ids, id)
			}
		}
	}
	var us []float64
	for _, id := range ids {
		key := recipedb.RecipeKey(id)
		t0 := time.Now()
		val, err := st.db.Get(key)
		d := time.Since(t0)
		if err == nil && len(val) > 0 {
			us = append(us, float64(d)/float64(time.Microsecond))
		}
	}
	return median(us)
}

// writeTrace writes the span file and the budget table of one traced
// run under bench/out/.
func (h *harness) writeTrace(w *workload, spans []span, rows []budgetRow) error {
	dir := filepath.Join(h.root, "bench", "out")
	if err := writeSpans(filepath.Join(dir, "trace_"+w.name+".jsonl"), spans); err != nil {
		return err
	}
	if err := writeBudget(filepath.Join(dir, "budget_"+w.name+".md"), w.name, rows); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d spans in %s\n", w.name, len(spans), dir)
	return nil
}
