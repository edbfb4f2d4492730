// Package server exposes the culinary database over HTTP — the
// equivalent of the paper's public CulinaryDB/FlavorDB web front ends
// (http://cosylab.iiitd.edu.in/culinarydb), implemented with net/http
// only. The API serves region statistics, recipes, ingredient flavor
// data, pairing analyses, full-text search, CQL queries and cuisine
// classification as JSON.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/classify"
	"culinary/internal/flavor"
	"culinary/internal/httpmw"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/replica"
	"culinary/internal/rng"
	"culinary/internal/search"
	"culinary/internal/storage"
)

// Config assembles the dependencies of a Server.
type Config struct {
	Store    *recipedb.Store
	Analyzer *pairing.Analyzer
	// NullRecipes is the default null-model sample size for the
	// pairing endpoint; requests may lower (never raise) it. Defaults
	// to 2000.
	NullRecipes int
	// Seed drives the pairing endpoint's null draws.
	Seed uint64
	// Logger receives request logs; nil disables logging.
	Logger *log.Logger
	// DB is the optional storage engine backing the corpus snapshot;
	// when set, /api/health reports its checkpoint, log and health.
	DB *storage.Store
	// ResultCacheBytes bounds the response cache, which replays a
	// read's encoded answer while the corpus stays at the version it was
	// computed at (respcache.go). 0 disables it; negative selects
	// DefaultResponseCacheBytes.
	ResultCacheBytes int64
	// Traffic, when non-nil, arms the httpmw production-traffic stack
	// (rate limiting, body caps, per-request deadlines, load
	// shedding) around every handler. Nil callbacks get server-aware
	// defaults: IsMutation classifies POST/DELETE /api/recipes as
	// mutations and Exempt passes /api/health. /api/health reports
	// the stack's counters under "traffic".
	Traffic *httpmw.Config
	// ClassifierRebuildInterval is ignored: the classifier reads the
	// corpus counters on every request, so there is nothing to rebuild.
	//
	// Deprecated: set only by bench/inproc.go; delete the field once
	// that caller stops setting it.
	ClassifierRebuildInterval time.Duration
	// RecommenderRebuildInterval is ignored, as ClassifierRebuildInterval.
	//
	// Deprecated: set only by bench/inproc.go; delete the field once
	// that caller stops setting it.
	RecommenderRebuildInterval time.Duration
	// Follower switches the server into read-replica mode: Store must
	// be the follower's corpus, mutation endpoints answer 403
	// not_primary (with a Location redirect when PrimaryURL is set),
	// and /api/health gains a replication block with the follower's
	// lag and poll counters. Read endpoints are unchanged — including
	// the version gate, which is what makes replica reads safe under
	// the read-your-writes contract (see replica.go).
	Follower *replica.Follower
	// PrimaryURL is the primary's public API base URL, advertised in
	// not_primary rejections so clients can self-correct.
	PrimaryURL string
	// Feed, on a primary serving a replication listener, adds the
	// feed's counters to /api/health's replication block.
	Feed *replica.Feed
}

// DefaultMaxBatchItems bounds the recipes one POST /api/recipes/batch
// request may carry. A batch holds the fan-in token for its whole
// plan/persist/apply cycle, so the cap is what keeps one huge ingest
// from stalling interactive mutations behind it — which is why there
// is no way to switch it off.
const DefaultMaxBatchItems = 256

// Server routes API requests to the analysis stack. No read model
// lags the corpus: the full-text search index is maintained
// incrementally inside the mutation critical section (an acked upsert
// is searchable by the next request), and the classifier and the
// recommender read the corpus's per-region counters under the
// request's own Store.Read, stamping responses with that read's
// version. Construction still indexes the whole corpus, so creating a
// Server is not free; reuse one instance.
type Server struct {
	cfg     Config
	catalog *flavor.Catalog
	index   *search.Index
	engine  *query.Engine
	cache   *respCache // nil when Config.ResultCacheBytes is 0
	traffic *httpmw.Traffic
	mux     *http.ServeMux
	// storage503 counts storage_unavailable responses (one per queued
	// mutation or whole batch request), reported under
	// traffic.storageUnavailable503 in /api/health.
	storage503 atomic.Int64
}

// New builds a Server and its search index. A corpus that cannot
// support a model (empty, or only one region) is not an error: the
// affected endpoints serve structured 503 model_unavailable until a
// write makes the corpus support it.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil || cfg.Analyzer == nil {
		return nil, errors.New("server: Config needs Store and Analyzer")
	}
	if cfg.NullRecipes <= 0 {
		cfg.NullRecipes = 2000
	}
	t0 := time.Now()
	s := &Server{
		cfg:     cfg,
		catalog: cfg.Store.Catalog(),
		index:   search.NewLive(cfg.Store),
		engine:  query.NewEngine(cfg.Store, cfg.Analyzer),
	}
	switch {
	case cfg.ResultCacheBytes > 0:
		s.cache = newRespCache(cfg.ResultCacheBytes)
	case cfg.ResultCacheBytes < 0:
		s.cache = newRespCache(DefaultResponseCacheBytes)
	}
	if cfg.Logger != nil {
		// The one build New waits for, over the whole corpus; with
		// cmd/server's "corpus ready" line this is the boot's stage budget.
		d := time.Since(t0)
		cfg.Logger.Printf("read models ready in %v index=%dms", d.Round(time.Millisecond), d.Milliseconds())
	}
	if cfg.Traffic != nil {
		tc := *cfg.Traffic
		if tc.IsMutation == nil {
			tc.IsMutation = isMutationRequest
		}
		if tc.Exempt == nil {
			tc.Exempt = isExemptRequest
		}
		s.traffic = httpmw.NewTraffic(tc)
	}
	s.mux = http.NewServeMux()
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, rt.handler)
	}
	return s, nil
}

// isMutationRequest splits the rate-limit budgets: only requests that
// mutate the corpus draw from the (smaller) mutation budget; read-only
// POST endpoints (query, classify, complete, taste) are cheap reads.
func isMutationRequest(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodOptions:
		return false
	case http.MethodDelete:
		return true
	}
	return strings.HasPrefix(r.URL.Path, "/api/recipes")
}

// isExemptRequest passes health probes around the limiter and the
// load-shed gate: monitoring must answer precisely when the server is
// saturated, and the soak harness asserts on its counters mid-storm.
func isExemptRequest(r *http.Request) bool {
	return r.URL.Path == "/api/health"
}

// Traffic exposes the armor stack's counters (nil when Config.Traffic
// was nil); the load/soak harness asserts against these via
// /api/health.
func (s *Server) Traffic() *httpmw.Traffic { return s.traffic }

// Close releases nothing: the server runs no background work. It stays
// for callers that pair New with Close.
func (s *Server) Close() {}

// Index exposes the live search index (for equivalence checks).
func (s *Server) Index() *search.Index { return s.index }

// modelRetryAfterSeconds is the Retry-After hint on model_unavailable
// responses: every request reads the live corpus, so the first request
// after a write that gives the corpus enough recipes succeeds, and a
// short client backoff suffices.
const modelRetryAfterSeconds = 1

// writeModelUnavailable maps a corpus that cannot support a model onto
// the structured envelope: 503 model_unavailable with Retry-After. The
// cause (e.g. "need >= 2 regions") is safe to surface — it describes
// corpus shape, not internals.
func (s *Server) writeModelUnavailable(w http.ResponseWriter, err error) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("model unavailable: %v", err)
	}
	w.Header().Set("Retry-After", strconv.Itoa(modelRetryAfterSeconds))
	httpmw.WriteError(w, http.StatusServiceUnavailable, httpmw.CodeModelUnavailable,
		err.Error())
}

// route is one mux pattern and the handler serving it.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// routes lists every endpoint New registers; the wire-compatibility
// battery checks each of them.
func (s *Server) routes() []route {
	upsert, batch, del := s.handleUpsertRecipe, s.handleBatchUpsert, s.handleDeleteRecipe
	if s.cfg.Follower != nil {
		// Read-replica mode: the corpus changes only by following the
		// primary's log, never via the API. The follower's corpus writes
		// through to its own store, so a write accepted here would
		// diverge from the primary durably.
		upsert, batch, del = s.handleNotPrimary, s.handleNotPrimary, s.handleNotPrimary
	}
	return []route{
		{"GET /api/health", s.handleHealth},
		{"GET /api/regions", s.handleRegions},
		{"GET /api/regions/{code}", s.handleRegion},
		{"GET /api/regions/{code}/pairing", s.handlePairing},
		{"GET /api/recipes", s.handleRecipes},
		{"GET /api/recipes/{id}", s.handleRecipe},
		{"POST /api/recipes", upsert},
		{"POST /api/recipes/batch", batch},
		{"DELETE /api/recipes/{id}", del},
		{"GET /api/ingredients/{name}", s.handleIngredient},
		{"GET /api/ingredients/{name}/pairings", s.handleIngredientPairings},
		{"GET /api/search", s.handleSearch},
		{"POST /api/query", s.handleQuery},
		{"POST /api/classify", s.handleClassify},
		{"POST /api/complete", s.handleComplete},
		{"GET /api/ingredients/{name}/substitutes", s.handleSubstitute},
		{"POST /api/taste", s.handleTaste},
	}
}

// Handler returns the root handler. Chain, outermost first: panic
// recovery → request log → [rate limit → load-shed gate → body cap →
// deadline, when Config.Traffic is set] → envelope fallback → mux.
// Rejections happen cheapest-first (a 429 costs one map probe; a 503
// costs one atomic add) so overload never reaches the handlers, and
// the envelope fallback guarantees even the mux's own 404/405 pages
// honor the structured error contract.
func (s *Server) Handler() http.Handler {
	// The version gate sits just outside the mux: freshness floors are
	// checked (and responses version-stamped) for every endpoint, after
	// the traffic stack has already shed what it will shed.
	var h http.Handler = s.versionGate(s.mux)
	if s.traffic != nil {
		h = s.traffic.Wrap(h) // includes the envelope fallback
	} else {
		h = httpmw.EnvelopeFallback(h)
	}
	return s.recoverWrap(s.logWrap(h))
}

// logWrap logs one line per request when a logger is configured.
func (s *Server) logWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("%s %s", r.Method, r.URL.Path)
		}
		next.ServeHTTP(w, r)
	})
}

// recoverWrap converts handler panics into 500 responses so one bad
// request cannot take the server down.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if s.cfg.Logger != nil {
					s.cfg.Logger.Printf("panic serving %s: %v", r.URL.Path, rec)
				}
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// writeError emits the structured error envelope
// {"error":{"code","message"}} with the code derived from the status;
// handlers needing a specific code call httpmw.WriteError directly.
func writeError(w http.ResponseWriter, status int, msg string) {
	httpmw.WriteError(w, status, "", msg)
}

// decodeJSON decodes a JSON request body, answering 413 (structured,
// counted) when the httpmw body cap tripped and 400 with the
// endpoint's usage string on malformed JSON. Returns false when a
// response was already written.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}, usage string) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	if httpmw.IsMaxBytesError(err) {
		if s.traffic != nil {
			s.traffic.Note413()
		}
		httpmw.WriteError(w, http.StatusRequestEntityTooLarge, httpmw.CodeTooLarge,
			"request body exceeds the configured size limit")
		return false
	}
	writeError(w, http.StatusBadRequest, usage)
	return false
}

// respBufs holds the buffers writeJSON encodes into.
var respBufs = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledRespBuf bounds what respBufs keeps: a buffer grown by a large
// listing (a 500-recipe page is ~100 KB) goes to the GC instead, so the
// pool holds only the few-KB buffers of ordinary reads.
const maxPooledRespBuf = 64 << 10

// writeJSON answers status with v encoded once, compactly and with one
// trailing newline, sent with its Content-Length in one Write. Response
// bodies are structs whose fields are declared in sorted key order —
// the order encoding/json gave the maps they used to be — so the bytes
// are the compact form of what those maps encoded to
// (TestWireCompatibility). JSON cannot carry NaN or ±Inf: an encode
// failure answers a 500 internal envelope instead, before anything of
// the success response was sent, and logs the endpoint.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	buf := respBufs.Get().(*bytes.Buffer)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("encoding the response to %s %s: %v", r.Method, r.URL.Path, err)
		}
		httpmw.WriteError(w, http.StatusInternalServerError, httpmw.CodeInternal,
			"encoding the response failed")
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(buf.Len()))
		w.WriteHeader(status)
		w.Write(buf.Bytes()) // fails only once the client is gone: nobody left to tell
		capture(w, status, buf.Bytes())
	}
	if buf.Cap() <= maxPooledRespBuf {
		buf.Reset()
		respBufs.Put(buf)
	}
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var rcs respCacheStats
	if s.cache != nil {
		rcs = s.cache.stats()
	}
	body := map[string]interface{}{
		"status":        "ok",
		"recipes":       s.cfg.Store.Len(),
		"corpusVersion": s.cfg.Store.Version(),
		"ingredients":   s.catalog.Len(),
		"molecules":     s.catalog.NumMolecules(),
		"vocabulary":    s.index.Vocabulary(),
		"resultCache": map[string]interface{}{
			"enabled":     s.cache != nil,
			"hits":        rcs.Hits,
			"misses":      rcs.Misses,
			"entries":     rcs.Entries,
			"bytes":       rcs.Bytes,
			"capacity":    rcs.Capacity,
			"evicted":     0, // a full cache refuses; it never evicts
			"invalidated": rcs.Invalidated,
			"rejected":    rcs.Rejected,
			"firstSight":  rcs.FirstSight,
		},
	}
	// The traffic block always carries the mutation fan-in's coalescing
	// telemetry and the storage_unavailable response count; the
	// rate-limit/shed counters join it when the traffic stack is armed.
	bs := s.cfg.Store.BatchStats()
	mutationBatches := map[string]interface{}{
		"batches":   bs.Batches,
		"ops":       bs.Ops,
		"coalesced": bs.Coalesced,
		"p50":       bs.P50Batch,
		"max":       bs.MaxBatch,
	}
	if s.traffic != nil {
		body["traffic"] = struct {
			httpmw.TrafficStats
			MutationBatches interface{} `json:"mutationBatches"`
			Storage503      int64       `json:"storageUnavailable503"`
		}{s.traffic.Stats(), mutationBatches, s.storage503.Load()}
	} else {
		body["traffic"] = map[string]interface{}{
			"mutationBatches":       mutationBatches,
			"storageUnavailable503": s.storage503.Load(),
		}
	}
	switch {
	case s.cfg.Follower != nil:
		body["replication"] = map[string]interface{}{
			"role":     "follower",
			"follower": s.cfg.Follower.Stats(),
		}
	case s.cfg.Feed != nil:
		body["replication"] = map[string]interface{}{
			"role": "primary",
			"feed": s.cfg.Feed.Stats(),
		}
	}
	if s.cfg.DB != nil {
		st := s.cfg.DB.Stats()
		hs := s.cfg.DB.HealthStats()
		body["storage"] = map[string]interface{}{
			// Their sum is the bytes on disk: the checkpoint is what a
			// boot reads whole, the log what it replays over it.
			"liveBytes": st.CheckpointBytes,
			"deadBytes": st.LogBytes,
			"checkpoint": map[string]interface{}{
				"version":    st.CheckpointVersion,
				"bytes":      st.CheckpointBytes,
				"logBytes":   st.LogBytes,
				"logRecords": st.LogRecords,
				"runs":       st.Checkpoints,
				"lastError":  st.LastCheckpointError,
			},
			"health": map[string]interface{}{
				"state":           hs.State,
				"lastWriteError":  hs.LastWriteError,
				"degradations":    hs.Degradations,
				"recoveries":      hs.Recoveries,
				"salvagedRecords": hs.SalvagedRecords,
				"scrub": map[string]interface{}{
					"running":          hs.Scrub.Running,
					"runs":             hs.Scrub.Runs,
					"bytesVerified":    hs.Scrub.BytesVerified,
					"corruptionsFound": hs.Scrub.CorruptionsFound,
					"salvages":         hs.Scrub.Salvages,
					"lastError":        hs.Scrub.LastError,
				},
			},
		}
	}
	s.writeJSON(w, r, http.StatusOK, body)
}

// regionSummary is one row of GET /api/regions.
type regionSummary struct {
	Code        string `json:"code"`
	Name        string `json:"name"`
	Recipes     int    `json:"recipes"`
	Ingredients int    `json:"ingredients"`
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	regions := recipedb.MajorRegions()
	out := make([]regionSummary, len(regions))
	s.cfg.Store.Read(func(v *recipedb.View) {
		for i, region := range regions {
			out[i] = regionSummary{
				Code:        region.Code(),
				Name:        region.Name(),
				Recipes:     v.RegionLen(region),
				Ingredients: v.RegionIngredients(region),
			}
		}
	})
	s.writeJSON(w, r, http.StatusOK, out)
}

// parseRegion resolves the {code} path segment (ParseRegion is
// case-insensitive, so no normalization happens here).
func parseRegionParam(r *http.Request) (recipedb.Region, error) {
	return recipedb.ParseRegion(r.PathValue("code"))
}

// regionResponse is the GET /api/regions/{code} body.
type regionResponse struct {
	CategoryUsage  map[string]float64 `json:"categoryUsage"`
	Code           string             `json:"code"`
	Ingredients    int                `json:"ingredients"`
	MeanRecipeSize float64            `json:"meanRecipeSize"`
	Name           string             `json:"name"`
	Recipes        int                `json:"recipes"`
	TopIngredients []string           `json:"topIngredients"`
}

func (s *Server) handleRegion(w http.ResponseWriter, r *http.Request) {
	region, err := parseRegionParam(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	st := s.cfg.Store.RegionStats(region, 10)
	topNames := make([]string, len(st.Top))
	for i, id := range st.Top {
		topNames[i] = s.catalog.Ingredient(id).Name
	}
	categories := make(map[string]float64, len(st.CategoryUsage))
	for cat, frac := range st.CategoryUsage {
		if frac > 0 {
			categories[flavor.Category(cat).String()] = frac
		}
	}
	s.writeJSON(w, r, http.StatusOK, regionResponse{
		CategoryUsage:  categories,
		Code:           region.Code(),
		Ingredients:    st.Ingredients,
		MeanRecipeSize: st.MeanSize,
		Name:           region.Name(),
		Recipes:        st.Recipes,
		TopIngredients: topNames,
	})
}

// pairingResponse is the GET /api/regions/{code}/pairing body.
type pairingResponse struct {
	Model    string  `json:"model"`
	NRandom  int     `json:"nRandom"`
	NullMean float64 `json:"nullMean"`
	NullStd  float64 `json:"nullStd"`
	Observed float64 `json:"observed"`
	Pairing  string  `json:"pairing"`
	Region   string  `json:"region"`
	Z        float64 `json:"z"`
}

func (s *Server) handlePairing(w http.ResponseWriter, r *http.Request) {
	region, err := parseRegionParam(r)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	n := s.cfg.NullRecipes
	if raw := r.URL.Query().Get("null"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 100 {
			writeError(w, http.StatusBadRequest, "null must be an integer >= 100")
			return
		}
		if v < n {
			n = v
		}
	}
	model := pairing.RandomModel
	if raw := r.URL.Query().Get("model"); raw != "" {
		m, err := pairing.ParseModel(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		model = m
	}
	c := s.cfg.Store.BuildCuisine(region)
	res, err := pairing.Compare(s.cfg.Analyzer, s.cfg.Store, c, model, n, rng.New(s.cfg.Seed).Split(uint64(region)))
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.writeJSON(w, r, http.StatusOK, pairingResponse{
		Model:    model.String(),
		NRandom:  res.NRandom,
		NullMean: res.NullMean,
		NullStd:  res.NullStd,
		Observed: res.Observed,
		Pairing:  pairingDirection(res.Z),
		Region:   region.Code(),
		Z:        res.Z,
	})
}

// pairingDirection names the sign of a Z-score the way the paper does.
func pairingDirection(z float64) string {
	switch {
	case z > 0:
		return "uniform (positive)"
	case z < 0:
		return "contrasting (negative)"
	default:
		return "indistinguishable"
	}
}

// recipeJSON is the wire form of one recipe.
type recipeJSON struct {
	ID          int      `json:"id"`
	Name        string   `json:"name"`
	Region      string   `json:"region"`
	Source      string   `json:"source"`
	Ingredients []string `json:"ingredients"`
}

func (s *Server) recipeJSON(rec recipedb.Recipe) recipeJSON {
	names := make([]string, len(rec.Ingredients))
	for i, id := range rec.Ingredients {
		names[i] = s.catalog.Ingredient(id).Name
	}
	return recipeJSON{
		ID:          rec.ID,
		Name:        rec.Name,
		Region:      rec.Region.Code(),
		Source:      rec.Source.String(),
		Ingredients: names,
	}
}

// recipeListResponse is the GET /api/recipes body.
type recipeListResponse struct {
	Offset  int          `json:"offset"`
	Recipes []recipeJSON `json:"recipes"`
	Total   int          `json:"total"`
}

func (s *Server) handleRecipes(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := 20
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > 500 {
			writeError(w, http.StatusBadRequest, "limit must be in [1,500]")
			return
		}
		limit = v
	}
	offset := 0
	if raw := q.Get("offset"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "offset must be >= 0")
			return
		}
		offset = v
	}
	region := recipedb.World
	if raw := q.Get("region"); raw != "" {
		reg, err := recipedb.ParseRegion(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		region = reg
	}
	// The page and its total come from one read: a write between them
	// would answer a total that does not describe the page.
	resp := recipeListResponse{Offset: offset, Recipes: []recipeJSON{}} // a page past the end is [], not null
	s.cfg.Store.Read(func(v *recipedb.View) {
		resp.Total = v.RegionLen(region)
		v.RegionPage(region, offset, limit, func(rec *recipedb.Recipe) {
			resp.Recipes = append(resp.Recipes, s.recipeJSON(*rec))
		})
	})
	s.writeJSON(w, r, http.StatusOK, resp)
}

// recipeResponse is the GET /api/recipes/{id} body. PairingScore is a
// pointer because a recipe the analyzer cannot score has none, while a
// scored 0 is still sent.
type recipeResponse struct {
	PairingScore *float64   `json:"pairingScore,omitempty"`
	Recipe       recipeJSON `json:"recipe"`
}

func (s *Server) handleRecipe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= s.cfg.Store.Slots() {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no recipe %q", r.PathValue("id")))
		return
	}
	rec := s.cfg.Store.Recipe(id)
	if rec.Deleted {
		writeError(w, http.StatusNotFound, fmt.Sprintf("recipe %d was deleted", id))
		return
	}
	resp := recipeResponse{Recipe: s.recipeJSON(rec)}
	if score, ok := s.cfg.Analyzer.RecipeScore(rec.Ingredients); ok {
		resp.PairingScore = &score
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// ingredientResponse is the GET /api/ingredients/{name} body.
// ProfileSize is sent exactly when the ingredient has a profile (an
// empty profile's 0 included), Constituents only for a compound.
type ingredientResponse struct {
	Category     string   `json:"category"`
	Compound     bool     `json:"compound"`
	Constituents []string `json:"constituents,omitempty"`
	HasProfile   bool     `json:"hasProfile"`
	ID           int      `json:"id"`
	Name         string   `json:"name"`
	ProfileSize  *int     `json:"profileSize,omitempty"`
}

func (s *Server) handleIngredient(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, ok := s.catalog.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no ingredient %q", name))
		return
	}
	ing := s.catalog.Ingredient(id)
	resp := ingredientResponse{
		Category:   ing.Category.String(),
		Compound:   ing.Compound,
		HasProfile: ing.HasProfile,
		ID:         int(ing.ID),
		Name:       ing.Name,
	}
	if ing.HasProfile {
		size := s.catalog.Profile(id).Count()
		resp.ProfileSize = &size
	}
	for _, cid := range ing.Constituents {
		resp.Constituents = append(resp.Constituents, s.catalog.Ingredient(cid).Name)
	}
	s.writeJSON(w, r, http.StatusOK, resp)
}

// pairingEntry is one row of the ingredient-pairings response.
type pairingEntry struct {
	Name     string `json:"name"`
	Category string `json:"category"`
	Shared   int    `json:"sharedCompounds"`
}

// pairingsResponse is the GET /api/ingredients/{name}/pairings body.
type pairingsResponse struct {
	Ingredient string         `json:"ingredient"`
	Pairings   []pairingEntry `json:"pairings"`
}

func (s *Server) handleIngredientPairings(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, ok := s.catalog.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no ingredient %q", name))
		return
	}
	if !s.catalog.Ingredient(id).HasProfile {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("ingredient %q carries no flavor profile", name))
		return
	}
	limit := 10
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > 100 {
			writeError(w, http.StatusBadRequest, "limit must be in [1,100]")
			return
		}
		limit = v
	}
	top := s.cfg.Analyzer.TopPartners(id, limit)
	out := make([]pairingEntry, len(top))
	for i, p := range top {
		ing := s.catalog.Ingredient(p.Partner)
		out[i] = pairingEntry{Name: ing.Name, Category: ing.Category.String(), Shared: p.Shared}
	}
	s.writeJSON(w, r, http.StatusOK, pairingsResponse{Ingredient: name, Pairings: out})
}

// searchHit is the wire form of one search result.
type searchHit struct {
	Recipe recipeJSON `json:"recipe"`
	Score  float64    `json:"score"`
}

// searchResponse is the GET /api/search body.
type searchResponse struct {
	Hits    []searchHit `json:"hits"`
	Query   string      `json:"query"`
	Version uint64      `json:"version"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	text := q.Get("q")
	if strings.TrimSpace(text) == "" {
		writeError(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	opts := search.Options{Fuzzy: q.Get("fuzzy") == "1" || strings.EqualFold(q.Get("fuzzy"), "true")}
	if strings.EqualFold(q.Get("mode"), "all") {
		opts.Mode = search.ModeAll
	}
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > 100 {
			writeError(w, http.StatusBadRequest, "limit must be in [1,100]")
			return
		}
		opts.Limit = v
	}
	if raw := q.Get("region"); raw != "" {
		region, err := recipedb.ParseRegion(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		opts.Region, opts.HasRegion = region, true
	}
	// The index is maintained inside the mutation critical section, so
	// these hits reflect every acked mutation. Ranking and rendering
	// share one corpus read epoch (lock order store → index, as on the
	// mutation path): every hit carries the recipe the ranking saw, and
	// version is the corpus version of both.
	var out []searchHit
	var version uint64
	s.cfg.Store.Read(func(v *recipedb.View) {
		hits := s.index.SearchView(v, text, opts)
		version = v.Version
		out = make([]searchHit, len(hits))
		for i, h := range hits {
			out[i] = searchHit{Recipe: s.recipeJSON(*v.Recipe(h.RecipeID)), Score: h.Score}
		}
	})
	s.writeJSON(w, r, http.StatusOK, searchResponse{Hits: out, Query: text, Version: version})
}

// queryRequest is the POST /api/query body.
type queryRequest struct {
	Q string `json:"q"`
}

// queryResponse is the POST /api/query body.
type queryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Scanned int        `json:"scanned"`
	Version uint64     `json:"version"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if !s.decodeJSON(w, r, &req, "body must be JSON {\"q\": \"SELECT ...\"}") {
		return
	}
	if strings.TrimSpace(req.Q) == "" {
		writeError(w, http.StatusBadRequest, "empty query")
		return
	}
	// The request context carries the per-request deadline installed
	// by the middleware chain; the engine checks it mid-scan, so a
	// slow query aborts here instead of piling up behind the corpus
	// read lock.
	res, err := s.engine.RunContext(r.Context(), req.Q)
	if err != nil {
		if errors.Is(err, query.ErrCanceled) {
			if s.traffic != nil {
				s.traffic.NoteTimeout()
			}
			httpmw.WriteError(w, http.StatusGatewayTimeout, httpmw.CodeTimeout, err.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		rows[i] = cells
	}
	s.writeJSON(w, r, http.StatusOK, queryResponse{
		Columns: res.Columns,
		Rows:    rows,
		Scanned: res.Scanned,
		Version: res.Version,
	})
}

// classifyRequest is the POST /api/classify body.
type classifyRequest struct {
	Ingredients []string `json:"ingredients"`
}

// classifyResponseEntry is one class posterior.
type classifyResponseEntry struct {
	Region      string  `json:"region"`
	Name        string  `json:"name"`
	Probability float64 `json:"probability"`
}

// classifyResponse is the POST /api/classify body. ModelVersion is the
// corpus version the counters were read at, the same fence as
// query/search responses' "version".
type classifyResponse struct {
	ModelVersion       uint64                  `json:"modelVersion"`
	Predictions        []classifyResponseEntry `json:"predictions"`
	UnknownIngredients []string                `json:"unknownIngredients,omitempty"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if !s.decodeJSON(w, r, &req, "body must be JSON {\"ingredients\": [...]}") {
		return
	}
	if len(req.Ingredients) == 0 {
		writeError(w, http.StatusBadRequest, "ingredients list is empty")
		return
	}
	ids, unknown, err := s.resolveIngredients(req.Ingredients)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	var (
		modelVersion uint64
		preds        []classify.Prediction
		trainErr     error
	)
	s.cfg.Store.Read(func(v *recipedb.View) {
		modelVersion = v.Version
		c := classify.New()
		if trainErr = c.TrainLive(v); trainErr == nil {
			preds, err = c.Predict(ids)
		}
	})
	if trainErr != nil {
		s.writeModelUnavailable(w, trainErr)
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if len(preds) > 5 {
		preds = preds[:5]
	}
	out := make([]classifyResponseEntry, len(preds))
	for i, p := range preds {
		out[i] = classifyResponseEntry{
			Region:      p.Region.Code(),
			Name:        p.Region.Name(),
			Probability: p.Probability,
		}
	}
	s.writeJSON(w, r, http.StatusOK, classifyResponse{
		ModelVersion:       modelVersion,
		Predictions:        out,
		UnknownIngredients: unknown,
	})
}
