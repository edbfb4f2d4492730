// Command loadgen is a closed-loop HTTP load generator for the culinary
// API server: the standing "heavy traffic" harness the ROADMAP calls
// for. Each worker issues one request at a time (closed loop — offered
// load adapts to server latency, so overload manifests as shed 429/503
// responses, not an unbounded client backlog) drawn from a weighted mix
// of traffic shapes: CQL queries, recipe/region reads, full-text
// searches, recipe mutations (upsert + delete), mutation-then-search
// freshness probes (searchmut), recommender completions (recommend),
// and random-size bulk ingests through POST /api/recipes/batch with
// per-item result validation and a freshness probe on the last item
// (batch).
//
//	loadgen [-addr http://localhost:8080] [-read-addr http://localhost:8081]
//	        [-duration 60s] [-concurrency 16]
//	        [-mix query=35,read=25,search=15,mutation=10,searchmut=5,recommend=5,batch=5]
//	        [-seed 1] [-out BENCH_load.json] [-name LoadSoak/mixed] [-strict]
//
// With -read-addr the run becomes a replication soak: mutations still
// go to -addr (the primary) while every read shape targets the read
// address (a follower). Freshness probes then route their follow-up
// search with the write's acked corpus version as an X-Min-Version
// token, so the follower must either serve read-your-writes state or
// answer 503 replica_lagging — never a stale read. One lag-and-retry
// round trip per probe is within contract and lands in the
// replicaLagging503 bucket; a probe still lagging after the retry is
// a freshness violation (unbounded lag).
//
// The run records p50/p99 latency over successful requests, throughput,
// error rate and shed rate, and writes them as rows in the unified
// cmd/benchjson schema (ns_per_op = the percentile) so the CI
// bench-regression gate diffs soak results like any other benchmark.
//
// Every non-2xx response is checked against the structured error
// envelope {"error":{"code","message"}}; with -strict the process
// exits 1 when any 4xx/5xx body violates the contract, when any 5xx
// other than a deliberate 503 shed appears, when /api/health fails
// to report the traffic block the soak asserts on, or when a derived
// read model serves stale state: a searchmut probe whose acked upsert
// is missing from the immediately following search, or a recommend
// response whose modelVersion moves backwards within one worker. That
// makes a short soak a pass/fail regression test, not just a
// measurement.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	var (
		addr        = flag.String("addr", "http://localhost:8080", "server base URL (the primary: mutations always go here)")
		readAddr    = flag.String("read-addr", "", "base URL for read traffic (a follower); empty reads from -addr. Setting it makes 503 replica_lagging an expected probe outcome")
		duration    = flag.Duration("duration", 60*time.Second, "soak length")
		concurrency = flag.Int("concurrency", 16, "closed-loop workers")
		mixSpec     = flag.String("mix", "query=35,read=25,search=15,mutation=10,searchmut=5,recommend=5,batch=5", "traffic mix weights")
		seed        = flag.Int64("seed", 1, "workload RNG seed")
		out         = flag.String("out", "", "benchjson rows destination (default stdout)")
		name        = flag.String("name", "LoadSoak/mixed", "benchmark row name prefix")
		strict      = flag.Bool("strict", true, "exit 1 on contract violations (unexpected 5xx, malformed error envelopes, missing health traffic block)")
		tolerate    = flag.Bool("tolerate-degraded", false, "accept 503 storage_unavailable responses as expected read-only degradation (envelope and Retry-After still enforced); without it any storage_unavailable is a contract violation")
	)
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		fatal(err)
	}
	rep, err := runLoad(loadConfig{
		BaseURL:          strings.TrimRight(*addr, "/"),
		ReadBaseURL:      strings.TrimRight(*readAddr, "/"),
		Duration:         *duration,
		Concurrency:      *concurrency,
		Mix:              mix,
		Seed:             *seed,
		TolerateDegraded: *tolerate,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, rep.summary(*name))

	rows, err := rep.benchRows(*name)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		os.Stdout.Write(rows)
	} else if err := os.WriteFile(*out, rows, 0o644); err != nil {
		fatal(err)
	}

	if *strict {
		if msgs := rep.violations(); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, "loadgen: VIOLATION:", m)
			}
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "loadgen: contract clean (no unexpected 5xx, all error bodies enveloped)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

// shape names index the mix weights.
const (
	shapeQuery     = "query"
	shapeRead      = "read"
	shapeSearch    = "search"
	shapeMutation  = "mutation"
	shapeSearchMut = "searchmut" // upsert, then assert the ack is searchable
	shapeRecommend = "recommend" // completion with modelVersion monotonicity
	shapeBatch     = "batch"     // bulk ingest with per-item results + freshness probe
)

var shapeOrder = []string{shapeQuery, shapeRead, shapeSearch, shapeMutation, shapeSearchMut, shapeRecommend, shapeBatch}

// parseMix reads "query=40,read=30,...". Unknown shapes are errors;
// omitted shapes get weight 0; the total must be positive.
func parseMix(spec string) (map[string]int, error) {
	mix := map[string]int{
		shapeQuery: 0, shapeRead: 0, shapeSearch: 0, shapeMutation: 0,
		shapeSearchMut: 0, shapeRecommend: 0, shapeBatch: 0,
	}
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want shape=weight)", part)
		}
		if _, known := mix[k]; !known {
			return nil, fmt.Errorf("unknown traffic shape %q (shapes: %s)", k, strings.Join(shapeOrder, ", "))
		}
		var w int
		if _, err := fmt.Sscanf(v, "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("bad weight %q for shape %q", v, k)
		}
		mix[k] = w
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", spec)
	}
	return mix, nil
}

// loadConfig parameterizes one soak run.
type loadConfig struct {
	BaseURL string
	// ReadBaseURL, when non-empty and different from BaseURL, receives
	// every read-shaped request (a follower in a replication soak);
	// mutations still go to BaseURL. Freshness probes then carry the
	// write's corpus version as an X-Min-Version token, and one 503
	// replica_lagging + retry per probe becomes an expected outcome.
	ReadBaseURL string
	Duration    time.Duration
	Concurrency int
	Mix         map[string]int
	Seed        int64
	// TolerateDegraded accepts 503 storage_unavailable as an expected
	// outcome (the server's disk is being faulted deliberately, e.g.
	// the CI ENOSPC soak). The envelope and Retry-After contracts are
	// still enforced on those responses.
	TolerateDegraded bool
}

// report aggregates one run's outcome.
type report struct {
	Duration           time.Duration
	Succeeded          int64 // 2xx
	Expected4          int64 // 4xx carrying a valid envelope (incl. 413/429)
	Shed429            int64
	Shed503            int64
	Degraded503        int64 // 503 storage_unavailable under -tolerate-degraded
	ReplicaLagging503  int64 // 503 replica_lagging on version-token reads in a replica soak
	Timeout504         int64
	Unexpected5        int64 // 5xx other than 503 sheds
	EnvelopeViolations int64
	// FreshnessViolations counts derived-state staleness observed on
	// the wire: an acked upsert missing from the immediately following
	// search, or a recommender modelVersion regressing within a worker.
	FreshnessViolations int64
	violationSamples    []string

	latencies []time.Duration // successful requests only

	HealthTraffic map[string]interface{} // /api/health "traffic" block, post-run
}

// percentile returns the pth percentile (0..100) of successful-request
// latency; 0 with no samples. Callers sort r.latencies first.
func (r *report) percentile(p float64) time.Duration {
	if len(r.latencies) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(r.latencies)-1))
	return r.latencies[idx]
}

func (r *report) total() int64 {
	// Shed429 already rides inside Expected4; the 503 variants are
	// their own buckets.
	return r.Succeeded + r.Expected4 + r.Shed503 + r.Degraded503 + r.ReplicaLagging503 + r.Unexpected5 + r.EnvelopeViolations + r.Timeout504
}

// benchRows renders the run in the cmd/benchjson flat schema: one row
// per gated percentile, extra metrics riding on the p50 row.
func (r *report) benchRows(name string) ([]byte, error) {
	total := r.total()
	qps := 0.0
	if r.Duration > 0 {
		qps = float64(total) / r.Duration.Seconds()
	}
	shedRate, errRate := 0.0, 0.0
	if total > 0 {
		shedRate = float64(r.Shed429+r.Shed503) / float64(total)
		errRate = float64(r.Unexpected5+r.EnvelopeViolations) / float64(total)
	}
	rows := []map[string]interface{}{
		{
			"name":       name + "/p50",
			"iterations": total,
			"ns_per_op":  float64(r.percentile(50).Nanoseconds()),
			"qps":        qps,
			"error-rate": errRate,
			"shed-rate":  shedRate,
		},
		{
			"name":       name + "/p99",
			"iterations": total,
			"ns_per_op":  float64(r.percentile(99).Nanoseconds()),
		},
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// summary renders the human-readable run report.
func (r *report) summary(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen %s: %d requests in %v (%.0f req/s)\n",
		name, r.total(), r.Duration.Round(time.Millisecond), float64(r.total())/r.Duration.Seconds())
	fmt.Fprintf(&b, "  ok=%d expected4xx=%d (429=%d) shed503=%d degraded503=%d replicaLagging503=%d timeout504=%d unexpected5xx=%d envelopeViolations=%d freshnessViolations=%d\n",
		r.Succeeded, r.Expected4, r.Shed429, r.Shed503, r.Degraded503, r.ReplicaLagging503, r.Timeout504, r.Unexpected5, r.EnvelopeViolations, r.FreshnessViolations)
	fmt.Fprintf(&b, "  latency p50=%v p99=%v (over %d successes)\n",
		r.percentile(50).Round(time.Microsecond), r.percentile(99).Round(time.Microsecond), len(r.latencies))
	if r.HealthTraffic != nil {
		if tj, err := json.Marshal(r.HealthTraffic); err == nil {
			fmt.Fprintf(&b, "  health traffic: %s\n", tj)
		}
	}
	return b.String()
}

// violations lists the strict-mode contract failures.
func (r *report) violations() []string {
	var out []string
	if r.Succeeded == 0 {
		out = append(out, "no request succeeded")
	}
	if r.Unexpected5 > 0 {
		out = append(out, fmt.Sprintf("%d unexpected 5xx responses (only deliberate 503 sheds are allowed)", r.Unexpected5))
	}
	if r.EnvelopeViolations > 0 {
		out = append(out, fmt.Sprintf("%d error responses without a valid {\"error\":{\"code\",\"message\"}} envelope", r.EnvelopeViolations))
	}
	if r.FreshnessViolations > 0 {
		out = append(out, fmt.Sprintf("%d derived-state freshness violations (stale search after acked mutation, or regressing modelVersion)", r.FreshnessViolations))
	}
	for _, s := range r.violationSamples {
		out = append(out, "  sample: "+s)
	}
	if r.HealthTraffic == nil {
		out = append(out, "/api/health reported no \"traffic\" block")
	}
	return out
}

// corpusInfo is the workload vocabulary harvested at bootstrap.
type corpusInfo struct {
	ingredients []string
	regions     []string
	sources     []string
	slots       int
}

// waitHealthy polls /api/health until the server at base answers 200
// or the 30s patience runs out.
func waitHealthy(client *http.Client, base string) error {
	var lastErr error
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(base + "/api/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("health: status %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		time.Sleep(250 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became healthy: %w", base, lastErr)
}

// bootstrap waits for the server and harvests ingredient names, region
// codes and source labels to parameterize the workload.
func bootstrap(client *http.Client, base string) (*corpusInfo, error) {
	if err := waitHealthy(client, base); err != nil {
		return nil, err
	}

	resp, err := client.Get(base + "/api/recipes?limit=100")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Total   int `json:"total"`
		Recipes []struct {
			ID          int      `json:"id"`
			Region      string   `json:"region"`
			Source      string   `json:"source"`
			Ingredients []string `json:"ingredients"`
		} `json:"recipes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("harvesting corpus vocabulary: %w", err)
	}
	info := &corpusInfo{slots: body.Total}
	seenIng := map[string]bool{}
	seenReg := map[string]bool{}
	seenSrc := map[string]bool{}
	for _, rec := range body.Recipes {
		if !seenReg[rec.Region] {
			seenReg[rec.Region] = true
			info.regions = append(info.regions, rec.Region)
		}
		if !seenSrc[rec.Source] {
			seenSrc[rec.Source] = true
			info.sources = append(info.sources, rec.Source)
		}
		for _, ing := range rec.Ingredients {
			if !seenIng[ing] {
				seenIng[ing] = true
				info.ingredients = append(info.ingredients, ing)
			}
		}
	}
	if len(info.ingredients) < 5 || len(info.regions) == 0 || len(info.sources) == 0 {
		return nil, fmt.Errorf("corpus vocabulary too small (ingredients=%d regions=%d sources=%d)",
			len(info.ingredients), len(info.regions), len(info.sources))
	}
	return info, nil
}

// runLoad executes one closed-loop soak and aggregates the report.
func runLoad(cfg loadConfig) (*report, error) {
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		},
	}
	info, err := bootstrap(client, cfg.BaseURL)
	if err != nil {
		return nil, err
	}
	readBase := cfg.ReadBaseURL
	if readBase == "" {
		readBase = cfg.BaseURL
	}
	if readBase != cfg.BaseURL {
		// A follower bootstraps asynchronously; wait until it serves.
		if err := waitHealthy(client, readBase); err != nil {
			return nil, err
		}
	}

	var picks []string
	for _, s := range shapeOrder {
		for i := 0; i < cfg.Mix[s]; i++ {
			picks = append(picks, s)
		}
	}

	stop := time.Now().Add(cfg.Duration)
	reports := make([]*report, cfg.Concurrency)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Concurrency; i++ {
		w := &worker{
			id:               i,
			rng:              rand.New(rand.NewSource(cfg.Seed + int64(i))),
			client:           client,
			base:             cfg.BaseURL,
			readBase:         readBase,
			info:             info,
			picks:            picks,
			rep:              &report{},
			tolerateDegraded: cfg.TolerateDegraded,
			expectLagging:    readBase != cfg.BaseURL,
		}
		reports[i] = w.rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(stop)
		}()
	}
	start := time.Now()
	wg.Wait()

	total := &report{Duration: time.Since(start)}
	for _, r := range reports {
		total.Succeeded += r.Succeeded
		total.Expected4 += r.Expected4
		total.Shed429 += r.Shed429
		total.Shed503 += r.Shed503
		total.Degraded503 += r.Degraded503
		total.ReplicaLagging503 += r.ReplicaLagging503
		total.Timeout504 += r.Timeout504
		total.Unexpected5 += r.Unexpected5
		total.EnvelopeViolations += r.EnvelopeViolations
		total.FreshnessViolations += r.FreshnessViolations
		total.latencies = append(total.latencies, r.latencies...)
		if len(total.violationSamples) < 5 {
			total.violationSamples = append(total.violationSamples, r.violationSamples...)
		}
	}
	if len(total.violationSamples) > 5 {
		total.violationSamples = total.violationSamples[:5]
	}
	sort.Slice(total.latencies, func(i, j int) bool { return total.latencies[i] < total.latencies[j] })

	// Post-run health snapshot: the soak asserts the traffic block is
	// present so /api/health stays a valid overload dashboard.
	if resp, err := client.Get(cfg.BaseURL + "/api/health"); err == nil {
		var health map[string]interface{}
		if json.NewDecoder(resp.Body).Decode(&health) == nil {
			if tb, ok := health["traffic"].(map[string]interface{}); ok {
				total.HealthTraffic = tb
			}
		}
		resp.Body.Close()
	}
	return total, nil
}

// worker is one closed-loop client.
type worker struct {
	id     int
	rng    *rand.Rand
	client *http.Client
	// base receives mutations (the primary); readBase receives read
	// shapes and freshness follow-ups (a follower in a replica soak,
	// otherwise the same URL).
	base             string
	readBase         string
	info             *corpusInfo
	picks            []string
	rep              *report
	tolerateDegraded bool
	// expectLagging marks a replica soak: version-token reads may
	// legitimately answer 503 replica_lagging while the follower
	// catches up.
	expectLagging bool

	created []int // recipe IDs this worker upserted and may delete
	seq     int
	// lastModelVersion is the highest recommender modelVersion this
	// worker has observed; it must never regress.
	lastModelVersion uint64
}

func (w *worker) run(stop time.Time) {
	for time.Now().Before(stop) {
		switch w.picks[w.rng.Intn(len(w.picks))] {
		case shapeQuery:
			w.query()
		case shapeRead:
			w.read()
		case shapeSearch:
			w.search()
		case shapeMutation:
			w.mutate()
		case shapeSearchMut:
			w.searchMut()
		case shapeRecommend:
			w.recommend()
		case shapeBatch:
			w.batchIngest()
		}
	}
}

func (w *worker) ingredient() string {
	return w.info.ingredients[w.rng.Intn(len(w.info.ingredients))]
}

func (w *worker) region() string {
	return w.info.regions[w.rng.Intn(len(w.info.regions))]
}

// query issues one CQL statement: a rotating blend of the hot
// dashboard aggregate (result-cache friendly) and parameterized
// statements that force real scans.
func (w *worker) query() {
	var q string
	switch w.rng.Intn(4) {
	case 0:
		q = "SELECT region, count(*) FROM recipes GROUP BY region"
	case 1:
		q = fmt.Sprintf("SELECT name, size FROM recipes WHERE region = '%s' LIMIT 10", w.region())
	case 2:
		q = fmt.Sprintf("SELECT count(*) FROM recipes WHERE has('%s')", w.ingredient())
	default:
		q = fmt.Sprintf("SELECT avg(size) FROM recipes WHERE region = '%s'", w.region())
	}
	w.doRead("POST", "/api/query", map[string]interface{}{"q": q}, 0)
}

func (w *worker) read() {
	switch w.rng.Intn(3) {
	case 0:
		w.doRead("GET", fmt.Sprintf("/api/recipes?limit=20&offset=%d", w.rng.Intn(200)), nil, 0)
	case 1:
		w.doRead("GET", "/api/regions", nil, 0)
	default:
		if w.info.slots > 0 {
			w.doRead("GET", fmt.Sprintf("/api/recipes/%d", w.rng.Intn(w.info.slots)), nil, 0)
		}
	}
}

func (w *worker) search() {
	q := w.ingredient()
	if w.rng.Intn(2) == 0 {
		q += " " + w.ingredient()
	}
	w.doRead("GET", "/api/search?q="+strings.ReplaceAll(q, " ", "+")+"&limit=10", nil, 0)
}

// mutate upserts a small synthetic recipe, occasionally deleting one
// of this worker's own earlier creations so tombstone churn (and the
// result-cache invalidation it causes) stays in the mix.
func (w *worker) mutate() {
	if len(w.created) > 4 && w.rng.Intn(3) == 0 {
		id := w.created[len(w.created)-1]
		w.created = w.created[:len(w.created)-1]
		w.do("DELETE", fmt.Sprintf("/api/recipes/%d", id), nil)
		return
	}
	n := 2 + w.rng.Intn(4)
	seen := map[string]bool{}
	var ings []string
	for len(ings) < n {
		ing := w.ingredient()
		if !seen[ing] {
			seen[ing] = true
			ings = append(ings, ing)
		}
	}
	w.seq++
	status, body := w.do("POST", "/api/recipes", map[string]interface{}{
		"name":        fmt.Sprintf("loadgen w%d #%d", w.id, w.seq),
		"region":      w.region(),
		"source":      w.info.sources[w.rng.Intn(len(w.info.sources))],
		"ingredients": ings,
	})
	if status == http.StatusCreated {
		var resp struct {
			ID int `json:"id"`
		}
		if json.Unmarshal(body, &resp) == nil {
			w.created = append(w.created, resp.ID)
		}
	}
}

// alphaToken encodes n in base-26 letters, so workload-generated
// search tokens survive the tokenizer (purely alphabetic, >= 2 chars).
func alphaToken(n int) string {
	buf := []byte{'a' + byte(n%26)}
	for n /= 26; n > 0; n /= 26 {
		buf = append(buf, 'a'+byte(n%26))
	}
	return string(buf)
}

// searchMut is the mutation-visibility probe: upsert a recipe whose
// name carries a token unique to this (worker, sequence) pair, then —
// if the mutation was acked 2xx — assert the very next /api/search for
// that token returns the acked recipe ID. The follow-up read carries
// the ack's corpus version as an X-Min-Version token, so when reads
// target a follower the probe asserts read-your-writes across the
// replication hop: the follower either serves the write or answers
// 503 replica_lagging (one retry allowed) — never a stale hit list.
// A shed mutation (429/503) acks nothing, so there is nothing to
// assert; a shed search leaves freshness unobservable that round. A
// successful search missing the acked ID is a freshness violation:
// the synchronous-index contract broke on the wire.
func (w *worker) searchMut() {
	w.seq++
	token := "zzfresh" + alphaToken(w.id) + "q" + alphaToken(w.seq)
	n := 2 + w.rng.Intn(3)
	seen := map[string]bool{}
	var ings []string
	for len(ings) < n {
		ing := w.ingredient()
		if !seen[ing] {
			seen[ing] = true
			ings = append(ings, ing)
		}
	}
	status, body, hdr := w.doAt(w.base, "POST", "/api/recipes", map[string]interface{}{
		"name":        token + " probe",
		"region":      w.region(),
		"source":      w.info.sources[w.rng.Intn(len(w.info.sources))],
		"ingredients": ings,
	}, 0)
	if status != http.StatusCreated && status != http.StatusOK {
		return // not acked; nothing to assert
	}
	var ack struct {
		ID int `json:"id"`
	}
	if json.Unmarshal(body, &ack) != nil {
		return
	}
	w.created = append(w.created, ack.ID)

	ids, ok := w.probeSearch("searchmut", token, ackVersion(hdr))
	if !ok {
		return // search shed or still lagging; already classified
	}
	for _, id := range ids {
		if id == ack.ID {
			return
		}
	}
	w.rep.FreshnessViolations++
	w.note("searchmut: acked recipe %d missing from next search for %q (%d hits)", ack.ID, token, len(ids))
}

// ackVersion extracts the corpus version a mutation response was
// stamped with; 0 (no token) when the header is absent or unparseable,
// which degrades the probe to an unversioned read.
func ackVersion(hdr http.Header) uint64 {
	v, _ := strconv.ParseUint(hdr.Get("X-Corpus-Version"), 10, 64)
	return v
}

// retryAfterDelay honors a 503's Retry-After hint (capped at 5s so a
// misbehaving server cannot stall the soak), defaulting to 1s.
func retryAfterDelay(hdr http.Header) time.Duration {
	if s, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && s > 0 && s <= 5 {
		return time.Duration(s) * time.Second
	}
	return time.Second
}

// probeSearch issues a freshness follow-up /api/search with the
// write's version token and returns the hit IDs. A 503 replica_lagging
// answer earns exactly one retry after the Retry-After hint — the
// contract the replica soak enforces end to end; a probe still lagging
// after the retry is a freshness violation (lag is supposed to be
// bounded). Any other non-200 leaves freshness unobservable this
// round (ok=false without a violation).
func (w *worker) probeSearch(shape, token string, minVersion uint64) ([]int, bool) {
	path := "/api/search?q=" + token + "&limit=50"
	for attempt := 0; ; attempt++ {
		st, raw, hdr := w.doRead("GET", path, nil, minVersion)
		if st == http.StatusOK {
			var sr struct {
				Hits []struct {
					Recipe struct {
						ID int `json:"id"`
					} `json:"recipe"`
				} `json:"hits"`
			}
			if err := json.Unmarshal(raw, &sr); err != nil {
				w.rep.FreshnessViolations++
				w.note("%s: unparseable search body for %q: %.200s", shape, token, raw)
				return nil, false
			}
			ids := make([]int, 0, len(sr.Hits))
			for _, h := range sr.Hits {
				ids = append(ids, h.Recipe.ID)
			}
			return ids, true
		}
		if st == http.StatusServiceUnavailable && envelopeCode(raw) == "replica_lagging" {
			if attempt == 0 {
				time.Sleep(retryAfterDelay(hdr))
				continue
			}
			w.rep.FreshnessViolations++
			w.note("%s: follower still lagging after retry (minVersion=%d, token %q)", shape, minVersion, token)
		}
		return nil, false
	}
}

// recommend issues one completion and asserts the stamped modelVersion
// never moves backwards within this worker: the model reads the corpus
// at the request, and the corpus version never regresses. A 422 (the drawn region may
// have emptied out under mutation churn) carries no version to check.
func (w *worker) recommend() {
	status, raw, _ := w.doRead("POST", "/api/complete", map[string]interface{}{
		"region":      w.region(),
		"ingredients": []string{w.ingredient(), w.ingredient()},
		"k":           5,
	}, 0)
	if status != http.StatusOK {
		return
	}
	var resp struct {
		ModelVersion uint64 `json:"modelVersion"`
	}
	if json.Unmarshal(raw, &resp) != nil {
		return
	}
	if resp.ModelVersion < w.lastModelVersion {
		w.rep.FreshnessViolations++
		w.note("recommend: modelVersion went backwards: %d after %d", resp.ModelVersion, w.lastModelVersion)
		return
	}
	w.lastModelVersion = resp.ModelVersion
}

// batchIngest POSTs a random-size bulk ingest and validates the
// per-item result contract: one result per request item, every status
// from the documented set, applied items carrying an id — any drift is
// an envelope violation. Since every generated item is valid, a
// rejected item is a violation too. The last item's name carries a
// unique token, and — like searchmut — if the batch was acked, the very
// next search for that token must return the acked ID: the synchronous
// freshness contract covers coalesced batches exactly as it covers
// single upserts.
func (w *worker) batchIngest() {
	size := 2 + w.rng.Intn(7)
	recipes := make([]map[string]interface{}, size)
	var token string
	for i := range recipes {
		w.seq++
		n := 2 + w.rng.Intn(3)
		seen := map[string]bool{}
		var ings []string
		for len(ings) < n {
			ing := w.ingredient()
			if !seen[ing] {
				seen[ing] = true
				ings = append(ings, ing)
			}
		}
		name := fmt.Sprintf("loadgen bulk w%d #%d", w.id, w.seq)
		if i == size-1 {
			token = "zzbulk" + alphaToken(w.id) + "q" + alphaToken(w.seq)
			name = token + " probe"
		}
		recipes[i] = map[string]interface{}{
			"name":        name,
			"region":      w.region(),
			"source":      w.info.sources[w.rng.Intn(len(w.info.sources))],
			"ingredients": ings,
		}
	}
	status, raw, hdr := w.doAt(w.base, "POST", "/api/recipes/batch", map[string]interface{}{"recipes": recipes}, 0)
	if status != http.StatusOK {
		return // shed or degraded; already classified by do
	}
	var resp struct {
		Applied int `json:"applied"`
		Results []struct {
			Index   int    `json:"index"`
			Status  string `json:"status"`
			ID      *int   `json:"id"`
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		w.rep.EnvelopeViolations++
		w.note("batch: unparseable response: %.200s", raw)
		return
	}
	if len(resp.Results) != size {
		w.rep.EnvelopeViolations++
		w.note("batch: %d items answered with %d results", size, len(resp.Results))
		return
	}
	probeID := -1
	for i, res := range resp.Results {
		switch res.Status {
		case "created", "replaced", "kept":
			if res.ID == nil {
				w.rep.EnvelopeViolations++
				w.note("batch: %s result %d lacks an id", res.Status, i)
				continue
			}
			if res.Status == "created" {
				w.created = append(w.created, *res.ID)
			}
			if i == size-1 {
				probeID = *res.ID
			}
		case "rejected":
			w.rep.EnvelopeViolations++
			w.note("batch: valid item %d rejected: %s %s", i, res.Code, res.Message)
		default:
			w.rep.EnvelopeViolations++
			w.note("batch: result %d has unknown status %q", i, res.Status)
		}
	}
	if probeID < 0 {
		return
	}

	ids, ok := w.probeSearch("batch", token, ackVersion(hdr))
	if !ok {
		return // search shed or still lagging; already classified
	}
	for _, id := range ids {
		if id == probeID {
			return
		}
	}
	w.rep.FreshnessViolations++
	w.note("batch: acked recipe %d missing from next search for %q (%d hits)", probeID, token, len(ids))
}

// do issues one mutation-side request against the primary base URL.
func (w *worker) do(method, path string, body interface{}) (int, []byte) {
	status, raw, _ := w.doAt(w.base, method, path, body, 0)
	return status, raw
}

// doRead issues one read-shaped request against the read base (the
// follower in a replica soak); minVersion > 0 stamps the X-Min-Version
// token so a lagging follower must refuse rather than serve stale.
func (w *worker) doRead(method, path string, body interface{}, minVersion uint64) (int, []byte, http.Header) {
	return w.doAt(w.readBase, method, path, body, minVersion)
}

// doAt issues one request, classifies the response, and validates the
// envelope contract on every error status.
func (w *worker) doAt(base, method, path string, body interface{}, minVersion uint64) (int, []byte, http.Header) {
	var reader io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, nil
		}
		reader = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, base+path, reader)
	if err != nil {
		return 0, nil, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if minVersion > 0 {
		req.Header.Set("X-Min-Version", strconv.FormatUint(minVersion, 10))
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		// Transport-level failure (refused, client timeout): counted
		// as an unexpected failure — a draining server must finish
		// accepted requests, and a healthy one must keep accepting.
		w.rep.Unexpected5++
		w.note("transport error on %s %s: %v", method, path, err)
		return 0, nil, nil
	}
	elapsed := time.Since(start)
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()

	status := resp.StatusCode
	switch {
	case status >= 200 && status < 300:
		w.rep.Succeeded++
		w.rep.latencies = append(w.rep.latencies, elapsed)
	case status == http.StatusTooManyRequests:
		w.classifyError(status, raw, resp, method, path)
	case status == http.StatusServiceUnavailable:
		w.classifyError(status, raw, resp, method, path)
	case status == http.StatusGatewayTimeout:
		w.classifyError(status, raw, resp, method, path)
	case status >= 500:
		w.rep.Unexpected5++
		w.note("unexpected %d on %s %s: %.200s", status, method, path, raw)
	default: // other 4xx
		w.classifyError(status, raw, resp, method, path)
	}
	return status, raw, resp.Header
}

// classifyError buckets an expected error status after validating the
// envelope (and, for 429/503, the Retry-After contract).
func (w *worker) classifyError(status int, raw []byte, resp *http.Response, method, path string) {
	if !validEnvelope(raw) {
		w.rep.EnvelopeViolations++
		w.note("%d on %s %s has no valid error envelope: %.200s", status, method, path, raw)
		return
	}
	switch status {
	case http.StatusTooManyRequests:
		w.rep.Shed429++
		w.rep.Expected4++
		if resp.Header.Get("Retry-After") == "" {
			w.rep.EnvelopeViolations++
			w.note("429 on %s %s missing Retry-After", method, path)
		}
	case http.StatusServiceUnavailable:
		switch envelopeCode(raw) {
		case "storage_unavailable":
			// The storage engine's write path is degraded, not the
			// request pipeline. Only acceptable when the caller said
			// the disk is being faulted on purpose.
			if !w.tolerateDegraded {
				w.rep.Unexpected5++
				w.note("503 storage_unavailable on %s %s without -tolerate-degraded", method, path)
				return
			}
			w.rep.Degraded503++
		case "replica_lagging":
			// A version-token read outran the follower's replay — the
			// documented refuse-rather-than-serve-stale outcome, but
			// only a replica soak (-read-addr) should ever see it.
			if !w.expectLagging {
				w.rep.Unexpected5++
				w.note("503 replica_lagging on %s %s outside a replica soak", method, path)
				return
			}
			w.rep.ReplicaLagging503++
		default:
			w.rep.Shed503++
		}
		if resp.Header.Get("Retry-After") == "" {
			w.rep.EnvelopeViolations++
			w.note("503 on %s %s missing Retry-After", method, path)
		}
	case http.StatusGatewayTimeout:
		w.rep.Timeout504++
	default:
		w.rep.Expected4++
	}
}

func (w *worker) note(format string, args ...interface{}) {
	if len(w.rep.violationSamples) < 3 {
		w.rep.violationSamples = append(w.rep.violationSamples, fmt.Sprintf(format, args...))
	}
}

// validEnvelope checks the structured error contract: the body must be
// {"error":{"code","message"}} with a non-empty code.
func validEnvelope(raw []byte) bool {
	return envelopeCode(raw) != ""
}

// envelopeCode extracts the machine-readable code from an error
// envelope, or "" when the body is not a valid envelope.
func envelopeCode(raw []byte) string {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return ""
	}
	return env.Error.Code
}
