package replica_test

// The replication invariant harness. A seeded schedule (internal/rng)
// of primary writes and batches, primary compactions, scrub quarantines
// and restarts, follower crashes, clean reopens and polls runs over a
// transport that fails, resets, truncates and delays feed responses,
// and after every step the harness checks what the read-replica
// contract promises:
//
//   - a follower at version V holds exactly the corpus the primary held
//     at V (CanonicalDump, recorded at every version the primary
//     published);
//   - neither side's version ever goes back, restarts and crashes
//     included;
//   - a follower read carrying X-Min-Version: V never answers with data
//     from before V.
//
// The schedule reaches the follower only through the package's public
// surface, so it states the contract independently of how replication
// works; the adapter below is the one part that names how a
// follower is opened, closed and crashed. A failure names its seed and
// step: rerun it alone with -run 'TestReplicationHarness/seed=N'.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/replica"
	"culinary/internal/rng"
	"culinary/internal/server"
	"culinary/internal/storage"
)

// ---- adapter ----

// follower is one open follower incarnation and the store it owns.
type follower struct {
	*replica.Follower
	db *storage.Store
}

// openFollower opens the follower whose local state lives in dir.
func openFollower(primaryURL, dir string, catalog *flavor.Catalog, hc *http.Client) (*follower, error) {
	db, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return nil, err
	}
	f, err := replica.OpenFollower(replica.FollowerConfig{Primary: primaryURL, DB: db, Catalog: catalog, HTTPClient: hc})
	if err != nil {
		db.Close()
		return nil, err
	}
	return &follower{f, db}, nil
}

// close shuts the follower down cleanly.
func (f *follower) close() {
	f.Close()
	f.db.Close()
}

// crash abandons the follower the way a killed process leaves it:
// nothing is closed, flushed or told.
func (f *follower) crash() {}

// resumedLocally reports whether the follower, just opened, came back
// from its own directory without copying the primary's corpus again.
func (f *follower) resumedLocally() bool { return f.Stats().Resyncs == 0 }

// newFeed serves a primary's replication feed; stop releases it.
func newFeed(db *storage.Store, corpus *recipedb.Store) (h http.Handler, stop func()) {
	feed := replica.NewFeed(db, corpus)
	return feed.Handler(), feed.Close
}

// ---- schedule ----

// harnessSeeds is the tier-1 seed set; harnessSteps the schedule length
// per seed.
var harnessSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}

const (
	harnessSteps = 60
	baseRecipes  = 12
)

var harnessRegions = []recipedb.Region{recipedb.Italy, recipedb.Japan, recipedb.Mexico, recipedb.France}

var (
	sharedOnce     sync.Once
	sharedCatalog  *flavor.Catalog
	sharedAnalyzer *pairing.Analyzer
	sharedErr      error
)

func catalogAndAnalyzer(t *testing.T) (*flavor.Catalog, *pairing.Analyzer) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedCatalog, sharedErr = flavor.Build(flavor.DefaultConfig())
		if sharedErr == nil {
			sharedAnalyzer = pairing.NewAnalyzer(sharedCatalog)
		}
	})
	if sharedErr != nil {
		t.Fatalf("building catalog: %v", sharedErr)
	}
	return sharedCatalog, sharedAnalyzer
}

func TestReplicationHarness(t *testing.T) {
	for _, seed := range harnessSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newHarness(t, seed, true)
			for h.stepNo = 0; h.stepNo < harnessSteps; h.stepNo++ {
				h.step()
			}
			h.action = "final catch-up"
			h.catchUp()
			h.readCheck(true)
			t.Logf("seed %d: %v; %d polls, %d failed; %d transport faults", seed, h.actions, h.polls, h.pollErrors, h.faults.injected)
		})
	}
}

// TestFollowerRestartMatrix is the crash matrix: after every kind of
// change the primary makes — an insert, a rename, a delete, a batch, a
// compaction — the follower catches up and is then crashed (abandoned,
// nothing closed) and reopened. It must come back from its own
// directory, without copying the primary's corpus again, at the
// primary's version and holding exactly the primary's corpus.
func TestFollowerRestartMatrix(t *testing.T) {
	h := newHarness(t, 99, false)
	for h.stepNo = 0; h.stepNo < 15; h.stepNo++ {
		switch h.stepNo % 5 {
		case 0:
			h.action = "insert"
			h.insert()
		case 1:
			h.action = "rename"
			h.replace()
		case 2:
			h.action = "delete"
			h.remove()
		case 3:
			h.action = "batch"
			h.batch()
		case 4:
			h.action = "compact"
			h.compact()
		}
		h.catchUp()
		h.action += ", then a follower crash"
		h.api.Close()
		h.f.crash()
		h.openFollower()
		if !h.f.resumedLocally() {
			h.fatalf("the reopened follower copied the primary's corpus instead of resuming from its directory")
		}
		if got, want := h.f.Corpus().Version(), h.corpus.Version(); got != want {
			h.fatalf("reopened at version %d, primary at %d", got, want)
		}
		h.readCheck(true)
	}
}

// harness is one primary, one follower of it, and the record of every
// state the primary published.
type harness struct {
	t        *testing.T
	seed     uint64
	stepNo   int
	action   string
	actions  map[string]int
	sched    *rng.Source
	catalog  *flavor.Catalog
	analyzer *pairing.Analyzer
	faults   *faultyTransport
	client   *http.Client

	pdir, fdir string
	db         *storage.Store
	corpus     *recipedb.Store
	feedMu     sync.Mutex
	feed       http.Handler
	stopFeed   func()
	feedSrv    *httptest.Server

	f   *follower
	api *server.Server

	dumps                   map[uint64]string
	primaryMax, followerMax uint64
	last                    lastWrite
	names                   int
	polls, pollErrors       int
}

// lastWrite is the newest acknowledged write: the version it produced
// and what it left in its slot.
type lastWrite struct {
	version uint64
	id      int
	name    string
	deleted bool
}

func newHarness(t *testing.T, seed uint64, faults bool) *harness {
	t.Helper()
	catalog, analyzer := catalogAndAnalyzer(t)
	h := &harness{
		t: t, seed: seed, actions: map[string]int{}, sched: rng.New(seed),
		catalog: catalog, analyzer: analyzer,
		pdir: t.TempDir(), fdir: t.TempDir(), dumps: map[uint64]string{},
	}
	h.action = "setup"
	h.corpus = recipedb.NewStore(catalog)
	for i := 0; i < baseRecipes; i++ {
		h.insert()
	}
	db, err := storage.Open(h.pdir, storage.Options{})
	if err != nil {
		h.fatalf("opening the primary's store: %v", err)
	}
	h.db = db
	if err := storage.SaveCorpus(db, h.corpus); err != nil {
		h.fatalf("saving the primary's corpus: %v", err)
	}
	h.corpus.SetBackend(db)
	h.feed, h.stopFeed = newFeed(db, h.corpus)
	h.feedSrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.feedMu.Lock()
		feed := h.feed
		h.feedMu.Unlock()
		feed.ServeHTTP(w, r)
	}))
	h.faults = &faultyTransport{rng: rng.NewStream(seed, 1), on: faults, inner: &http.Transport{}}
	h.client = &http.Client{Transport: h.faults}
	t.Cleanup(func() {
		if h.api != nil {
			h.api.Close()
		}
		if h.f != nil {
			h.f.close()
		}
		h.stopFeed()
		h.feedSrv.Close()
		h.db.Close()
		h.faults.inner.CloseIdleConnections()
	})
	h.openFollower()
	return h
}

func (h *harness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d, step %d (%s): %s", h.seed, h.stepNo, h.action, fmt.Sprintf(format, args...))
}

// step runs one scheduled action, checks both sides, and half the time
// lets the follower catch up — so the other half, the next action meets
// a follower that lags.
func (h *harness) step() {
	switch k := h.sched.Intn(100); {
	case k < 25:
		h.action = "write"
		switch h.sched.Intn(4) {
		case 0:
			h.insert()
		case 1:
			h.replace()
		case 2:
			h.touch()
		default:
			h.remove()
		}
	case k < 40:
		h.action = "batch"
		h.batch()
	case k < 50:
		h.action = "poll"
		if h.f.Corpus().Version() < h.corpus.Version() {
			h.poll()
		}
	case k < 58:
		h.action = "compact"
		h.compact()
	case k < 64:
		h.action = "scrub"
		h.scrub()
	case k < 74:
		h.action = "primary restart"
		h.restartPrimary()
	case k < 86:
		h.action = "follower crash"
		h.api.Close()
		h.f.crash()
		h.openFollower()
	default:
		h.action = "follower reopen"
		h.api.Close()
		h.f.close()
		h.openFollower()
	}
	h.actions[h.action]++
	h.checkPrimary()
	h.checkFollower()
	h.readCheck(false)
	if h.sched.Intn(2) == 0 {
		h.catchUp()
		h.readCheck(true)
	}
}

// record notes the primary's state at its current version.
func (h *harness) record() {
	h.dumps[h.corpus.Version()] = h.corpus.CanonicalDump()
}

func (h *harness) ingredients() []flavor.ID {
	idx := h.sched.SampleWithoutReplacement(h.catalog.Len(), 2+h.sched.Intn(4))
	ids := make([]flavor.ID, len(idx))
	for i, x := range idx {
		ids[i] = flavor.ID(x)
	}
	return ids
}

func (h *harness) nextName() string {
	h.names++
	return fmt.Sprintf("dish %d of seed %d", h.names, h.seed)
}

// liveID picks a live slot, or -1 when the corpus is nearly empty.
func (h *harness) liveID() int {
	live := h.corpus.RegionRecipes(recipedb.World)
	if len(live) < 4 {
		return -1
	}
	return live[h.sched.Intn(len(live))]
}

func (h *harness) insert() { h.upsert(-1) }

func (h *harness) replace() { h.upsert(h.liveID()) }

func (h *harness) upsert(id int) {
	name := h.nextName()
	region := harnessRegions[h.sched.Intn(len(harnessRegions))]
	id, v, _, err := h.corpus.Upsert(id, name, region, recipedb.AllRecipes, h.ingredients())
	if err != nil {
		h.fatalf("upsert: %v", err)
	}
	h.last = lastWrite{version: v, id: id, name: name}
	h.record()
}

// touch rewrites a live recipe with its own content: a new version that
// changes no slot.
func (h *harness) touch() {
	id := h.liveID()
	if id < 0 {
		h.insert()
		return
	}
	r := h.corpus.Recipe(id)
	_, v, _, err := h.corpus.Upsert(id, r.Name, r.Region, r.Source, r.Ingredients)
	if err != nil {
		h.fatalf("rewriting %d: %v", id, err)
	}
	h.last = lastWrite{version: v, id: id, name: r.Name}
	h.record()
}

func (h *harness) remove() {
	id := h.liveID()
	if id < 0 {
		h.insert()
		return
	}
	v, err := h.corpus.Remove(id)
	if err != nil {
		h.fatalf("remove %d: %v", id, err)
	}
	h.last = lastWrite{version: v, id: id, deleted: true}
	h.record()
}

// batch applies two to five inserts, replaces and deletes as one group.
func (h *harness) batch() {
	items := make([]recipedb.BatchItem, 2+h.sched.Intn(4))
	for i := range items {
		id := h.liveID()
		switch {
		case id >= 0 && h.sched.Intn(3) == 0:
			items[i] = recipedb.BatchItem{Remove: true, ID: id}
		default:
			if h.sched.Intn(2) == 0 {
				id = -1
			}
			items[i] = recipedb.BatchItem{ID: id, Name: h.nextName(),
				Region: harnessRegions[h.sched.Intn(len(harnessRegions))], Source: recipedb.AllRecipes, Ingredients: h.ingredients()}
		}
	}
	for i, res := range h.corpus.ApplyBatch(items) {
		if res.Err != nil {
			continue // a second delete of one slot
		}
		h.last = lastWrite{version: res.Version, id: res.ID, name: items[i].Name, deleted: items[i].Remove}
	}
	h.record()
}

// compact checkpoints the primary's store: compaction is a checkpoint.
func (h *harness) compact() {
	if err := h.db.Checkpoint(); err != nil {
		h.fatalf("checkpoint: %v", err)
	}
}

// scrub flips one byte of the primary's checkpoint or log and runs a
// scrub pass. A flip the scrubber does not read (the log's preallocated
// tail) is undone; any other is salvaged by a fresh checkpoint from
// memory, which the restarts and the final reload then read.
func (h *harness) scrub() {
	segs, err := filepath.Glob(filepath.Join(h.pdir, "[CL]*-*"))
	if err != nil || len(segs) == 0 {
		h.fatalf("listing the store's files: %v (%d found)", err, len(segs))
	}
	path := segs[h.sched.Intn(len(segs))]
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		return
	}
	off := int64(h.sched.Intn(int(info.Size())))
	flip := func(mask byte) {
		file, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			h.fatalf("opening %s: %v", path, err)
		}
		defer file.Close()
		b := make([]byte, 1)
		if _, err := file.ReadAt(b, off); err != nil {
			h.fatalf("reading %s: %v", path, err)
		}
		b[0] ^= mask
		if _, err := file.WriteAt(b, off); err != nil {
			h.fatalf("writing %s: %v", path, err)
		}
	}
	mask := byte(1 + h.sched.Intn(255))
	flip(mask)
	before := h.db.ScrubStats()
	if err := h.db.Scrub(); err != nil {
		h.fatalf("scrub: %v", err)
	}
	after := h.db.ScrubStats()
	if after.CorruptionsFound == before.CorruptionsFound {
		flip(mask)
		return
	}
	if after.Salvages == before.Salvages {
		h.fatalf("scrub found a corruption and salvaged nothing: %+v", after)
	}
}

// restartPrimary closes the primary and boots it again from its
// directory the way cmd/server does, with a new feed at the same URL.
func (h *harness) restartPrimary() {
	h.stopFeed()
	if err := h.db.Close(); err != nil {
		h.fatalf("closing the primary: %v", err)
	}
	db, err := storage.Open(h.pdir, storage.Options{})
	if err != nil {
		h.fatalf("reopening the primary: %v", err)
	}
	corpus, err := storage.LoadCorpus(db, h.catalog)
	if err != nil {
		h.fatalf("reloading the primary: %v", err)
	}
	corpus.SetBackend(db)
	h.db, h.corpus = db, corpus
	feed, stop := newFeed(db, corpus)
	h.feedMu.Lock()
	h.feed, h.stopFeed = feed, stop
	h.feedMu.Unlock()
}

// openFollower opens the follower on its directory, retrying what the
// transport's faults fail, and builds a read-replica API server over it.
func (h *harness) openFollower() {
	for try := 0; ; try++ {
		f, err := openFollower(h.feedSrv.URL, h.fdir, h.catalog, h.client)
		if err == nil {
			h.f = f
			break
		}
		if try == 50 {
			h.fatalf("opening the follower: %v", err)
		}
	}
	api, err := server.New(server.Config{
		Store: h.f.Corpus(), Analyzer: h.analyzer, Follower: h.f.Follower,
	})
	if err != nil {
		h.fatalf("building the follower's API: %v", err)
	}
	h.api = api
	h.checkFollower()
}

// checkPrimary: the primary's version never goes back, and its state at
// that version is the one recorded when it was first published — after
// a restart included.
func (h *harness) checkPrimary() {
	v := h.corpus.Version()
	if v < h.primaryMax {
		h.fatalf("primary version went back from %d to %d", h.primaryMax, v)
	}
	h.primaryMax = v
	want, ok := h.dumps[v]
	if !ok {
		h.fatalf("primary at version %d, which it never published", v)
	}
	if got := h.corpus.CanonicalDump(); got != want {
		h.fatalf("primary at version %d holds\n%s\nbut published\n%s", v, got, want)
	}
}

// checkFollower: the follower's version never goes back, and at a
// version the primary published it holds the primary's state.
func (h *harness) checkFollower() {
	v := h.f.Corpus().Version()
	if v < h.followerMax {
		h.fatalf("follower version went back from %d to %d", h.followerMax, v)
	}
	h.followerMax = v
	if want, ok := h.dumps[v]; ok {
		if got := h.f.Corpus().CanonicalDump(); got != want {
			h.fatalf("follower at version %d holds\n%s\nbut the primary published\n%s", v, got, want)
		}
	}
}

// poll runs one follower round. An error is a fault the transport
// injected; the checks that follow hold either way.
func (h *harness) poll() error {
	h.polls++
	err := h.f.Poll()
	if err != nil {
		h.pollErrors++
	}
	return err
}

// catchUp polls until the follower stands at the primary's version.
func (h *harness) catchUp() {
	want := h.corpus.Version()
	var err error
	for try := 0; h.f.Corpus().Version() < want; try++ {
		if try == 200 {
			h.fatalf("follower stuck at version %d, primary at %d; last poll: %v", h.f.Corpus().Version(), want, err)
		}
		err = h.poll()
		h.checkFollower()
	}
	if got := h.f.Corpus().Version(); got != want {
		h.fatalf("follower at version %d, ahead of the primary's %d", got, want)
	}
}

// readCheck reads the newest write's slot from the follower with
// X-Min-Version set to the version the write produced: a lagging
// follower may only refuse (503 replica_lagging), never answer with the
// slot as it was before the write. caughtUp requires an answer.
func (h *harness) readCheck(caughtUp bool) {
	if h.last.version == 0 {
		return
	}
	req := httptest.NewRequest("GET", fmt.Sprintf("/api/recipes/%d", h.last.id), nil)
	req.Header.Set(server.MinVersionHeader, strconv.FormatUint(h.last.version, 10))
	rr := httptest.NewRecorder()
	h.api.Handler().ServeHTTP(rr, req)
	var body struct {
		Recipe struct{ Name string }
		Error  struct{ Code string }
	}
	json.Unmarshal(rr.Body.Bytes(), &body)
	switch {
	case rr.Code == http.StatusServiceUnavailable && body.Error.Code == "replica_lagging" && !caughtUp:
	case rr.Code == http.StatusOK && !h.last.deleted && body.Recipe.Name == h.last.name:
		if v, _ := strconv.ParseUint(rr.Header().Get(server.CorpusVersionHeader), 10, 64); v < h.last.version {
			h.fatalf("read with X-Min-Version %d stamped with version %d", h.last.version, v)
		}
	case rr.Code == http.StatusNotFound && h.last.deleted:
	default:
		h.fatalf("read of slot %d with X-Min-Version %d (write left %+v): %d %s",
			h.last.id, h.last.version, h.last, rr.Code, rr.Body.String())
	}
}

// faultyTransport fails, resets, delays and truncates feed exchanges,
// drawing from its own seeded stream so a seed replays the same faults.
type faultyTransport struct {
	mu    sync.Mutex
	rng   *rng.Source
	on    bool
	inner *http.Transport
	// injected counts the exchanges a fault hit.
	injected int
}

func (ft *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	k, frac, clean := ft.rng.Intn(100), ft.rng.Float64(), ft.rng.Intn(2) == 0
	if !ft.on {
		k = 99
	}
	if k < 30 {
		ft.injected++
	}
	ft.mu.Unlock()
	switch {
	case k < 5: // the primary is unreachable
		return nil, fmt.Errorf("injected: %w", syscall.ECONNREFUSED)
	case k < 10: // a proxy in front of the primary answers 502
		return &http.Response{
			StatusCode: http.StatusBadGateway, Request: req,
			Header: http.Header{"Content-Type": {"application/json"}},
			Body:   io.NopCloser(bytes.NewReader([]byte(`{"error":{"code":"internal","message":"injected"}}`))),
		}, nil
	case k < 16:
		time.Sleep(time.Duration(1+int(frac*3)) * time.Millisecond)
	}
	resp, err := ft.inner.RoundTrip(req)
	if err != nil || k < 16 || k >= 30 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if k < 22 { // the connection resets after the primary answered
		return nil, fmt.Errorf("injected: %w", syscall.ECONNRESET)
	}
	// The body arrives cut short, ending cleanly or with an error.
	var tail io.Reader = bytes.NewReader(nil)
	if !clean {
		tail = io.MultiReader(errReader{io.ErrUnexpectedEOF})
	}
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body[:int(frac*float64(len(body)))]), tail))
	return resp, nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
