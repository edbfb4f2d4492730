package replica

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
)

var (
	catalogOnce sync.Once
	catalog     *flavor.Catalog
	catalogErr  error
)

func testCatalog(t testing.TB) *flavor.Catalog {
	t.Helper()
	catalogOnce.Do(func() { catalog, catalogErr = flavor.Build(flavor.DefaultConfig()) })
	if catalogErr != nil {
		t.Fatalf("building catalog: %v", catalogErr)
	}
	return catalog
}

// primary bundles a feed-serving primary: a storage-backed corpus plus
// the replication feed on an httptest listener.
type primary struct {
	t       *testing.T
	db      *storage.Store
	corpus  *recipedb.Store
	catalog *flavor.Catalog
	feed    *Feed
	srv     *httptest.Server

	nextIng int
	nextReg int
}

var testRegions = []recipedb.Region{
	recipedb.Italy, recipedb.Japan, recipedb.IndianSubcontinent, recipedb.Mexico,
}

// newPrimary builds a primary with baseRecipes recipes snapshotted into
// storage before write-through begins, as cmd/server starts one.
func newPrimary(t *testing.T, inj *storage.ErrInjector, baseRecipes int) *primary {
	t.Helper()
	p := &primary{t: t, catalog: testCatalog(t)}
	p.corpus = recipedb.NewStore(p.catalog)
	for i := 0; i < baseRecipes; i++ {
		p.addRecipe(fmt.Sprintf("base recipe %03d", i))
	}
	db, err := storage.Open(t.TempDir(), storage.Options{FaultInjection: inj})
	if err != nil {
		t.Fatalf("opening primary store: %v", err)
	}
	if err := storage.SaveCorpus(db, p.corpus); err != nil {
		t.Fatalf("saving corpus: %v", err)
	}
	p.db = db
	p.corpus.SetBackend(db)
	p.feed = NewFeed(db, p.corpus)
	p.srv = httptest.NewServer(p.feed.Handler())
	t.Cleanup(func() {
		p.feed.Close()
		p.srv.Close()
		db.Close()
	})
	return p
}

func (p *primary) ingredients(n int) []flavor.ID {
	p.t.Helper()
	names := p.catalog.Names()
	ids := make([]flavor.ID, n)
	for i := range ids {
		id, ok := p.catalog.Lookup(names[(p.nextIng+i*11)%len(names)])
		if !ok {
			p.t.Fatalf("lookup %q failed", names[(p.nextIng+i*11)%len(names)])
		}
		ids[i] = id
	}
	p.nextIng += 3
	return ids
}

func (p *primary) addRecipe(name string) int {
	p.t.Helper()
	region := testRegions[p.nextReg%len(testRegions)]
	p.nextReg++
	id, err := p.corpus.Add(name, region, recipedb.AllRecipes, p.ingredients(3))
	if err != nil {
		p.t.Fatalf("Add(%q): %v", name, err)
	}
	return id
}

func (p *primary) upsert(id int, name string) {
	p.t.Helper()
	r := p.corpus.Recipe(id)
	if _, _, _, err := p.corpus.Upsert(id, name, r.Region, r.Source, r.Ingredients); err != nil {
		p.t.Fatalf("Upsert(%d): %v", id, err)
	}
}

// newFollower opens a follower of p on a fresh store of its own.
func newFollower(t *testing.T, p *primary) *Follower {
	t.Helper()
	db, err := storage.Open(t.TempDir(), storage.Options{})
	if err != nil {
		t.Fatalf("opening follower store: %v", err)
	}
	f, err := OpenFollower(FollowerConfig{Primary: p.srv.URL, DB: db, Catalog: p.catalog})
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	t.Cleanup(func() {
		f.Close()
		db.Close()
	})
	return f
}

// syncFollower polls until the follower's corpus reaches the primary's
// current version, asserting the version token never regresses on the
// way (the monotonic read-your-writes contract).
func syncFollower(t *testing.T, f *Follower, p *primary) {
	t.Helper()
	want := p.corpus.Version()
	for i := 0; f.Corpus().Version() < want; i++ {
		prev := f.Corpus().Version()
		if i == 100 {
			t.Fatalf("follower stuck at version %d, want %d", prev, want)
		}
		if err := f.Poll(); err != nil {
			t.Fatalf("poll %d: %v", i, err)
		}
		if v := f.Corpus().Version(); v < prev {
			t.Fatalf("follower version regressed: %d after %d", v, prev)
		}
	}
	if got := f.Corpus().Version(); got != want {
		t.Fatalf("follower overshot: %d, primary %d", got, want)
	}
}

func assertConverged(t *testing.T, f *Follower, p *primary) {
	t.Helper()
	got, want := f.Corpus().CanonicalDump(), p.corpus.CanonicalDump()
	if got != want {
		t.Fatalf("follower state diverged from primary\nfollower:\n%s\nprimary:\n%s", got, want)
	}
}

// getLog reads the primary's log after version after. It reports
// failures with t.Error, so it may run off the test's goroutine.
func getLog(t *testing.T, p *primary, after uint64) (int, logBatch) {
	t.Helper()
	resp, err := http.Get(p.srv.URL + LogPath + "?after=" + strconv.FormatUint(after, 10))
	if err != nil {
		t.Error(err)
		return 0, logBatch{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, logBatch{}
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return 0, logBatch{}
	}
	b, err := decodeLog(body)
	if err != nil {
		t.Errorf("decoding the log: %v", err)
	}
	return resp.StatusCode, b
}

// TestFeedLogAndSnapshot pins the feed's two endpoints: the log answers
// the mutations after a version and the version they lead to, waits for
// the next one when there is none, answers resync for versions it cannot
// serve and 400/405 envelopes for bad requests; the snapshot decodes to
// the primary's corpus.
func TestFeedLogAndSnapshot(t *testing.T) {
	p := newPrimary(t, nil, 5)
	v0 := p.corpus.Version()

	id := p.addRecipe("logged insert")
	p.upsert(id, "logged rename")
	if _, err := p.corpus.Remove(0); err != nil {
		t.Fatal(err)
	}
	status, b := getLog(t, p, v0)
	if status != http.StatusOK || b.through != v0+3 || b.primary != v0+3 || len(b.entries) != 3 {
		t.Fatalf("log after %d: status %d, %+v", v0, status, b)
	}
	if e := b.entries[1]; e.version != v0+2 || e.id != id || e.recipe == nil || e.recipe.Name != "logged rename" {
		t.Errorf("rename entry = %+v", e)
	}
	if e := b.entries[2]; e.version != v0+3 || e.id != 0 || e.recipe != nil {
		t.Errorf("delete entry = %+v", e)
	}
	if _, b := getLog(t, p, v0+2); len(b.entries) != 1 || b.entries[0].version != v0+3 {
		t.Errorf("log after %d: %+v", v0+2, b)
	}

	// Nothing newer: the request waits for the next write.
	done := make(chan logBatch)
	go func() {
		_, b := getLog(t, p, v0+3)
		done <- b
	}()
	for p.feed.Stats().LongPolls == 0 {
		time.Sleep(time.Millisecond)
	}
	p.addRecipe("awaited insert")
	if b := <-done; len(b.entries) != 1 || b.through != v0+4 {
		t.Errorf("long-poll answered %+v", b)
	}

	// Versions the log cannot serve: before the feed started, and past
	// the primary's version.
	for _, after := range []uint64{v0 - 1, v0 + 5} {
		if status, _ := getLog(t, p, after); status != http.StatusGone {
			t.Errorf("log after %d: status %d, want 410", after, status)
		}
	}
	if st := p.feed.Stats(); st.Resyncs != 2 || st.BacklogFloor != v0 || st.BacklogLen != 4 || st.Version != v0+4 {
		t.Errorf("feed stats %+v", st)
	}

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"GET", LogPath + "?after=x", http.StatusBadRequest},
		{"POST", LogPath + "?after=1", http.StatusMethodNotAllowed},
		{"POST", SnapshotPath, http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, p.srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d %s, want %d with an envelope", tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), tc.want)
		}
	}

	resp, err := http.Get(p.srv.URL + SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := decodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	got := recipedb.NewStore(p.catalog)
	if err := snap.installInto(got); err != nil {
		t.Fatal(err)
	}
	if got.CanonicalDump() != p.corpus.CanonicalDump() {
		t.Errorf("snapshot installs as\n%s\nprimary\n%s", got.CanonicalDump(), p.corpus.CanonicalDump())
	}
}

// TestLogTrimsAndCaps: past twice backlogLen mutations the backlog drops
// its older half, and versions before the new floor answer resync; a log
// read spanning more than logBatchMax mutations is cut there, and a
// follower that far behind catches up a response at a time.
func TestLogTrimsAndCaps(t *testing.T) {
	p := newPrimary(t, nil, 4)
	f := newFollower(t, p)
	v0 := p.corpus.Version()
	r := p.corpus.Recipe(0)
	items := make([]recipedb.BatchItem, logBatchMax)
	for i := 0; p.corpus.Version() < v0+2*backlogLen+1; i++ {
		for j := range items {
			items[j] = recipedb.BatchItem{ID: 1 + j%3, Name: fmt.Sprintf("churn %d.%d", i, j), Region: r.Region, Source: r.Source, Ingredients: r.Ingredients}
		}
		p.corpus.ApplyBatch(items)
	}
	st := p.feed.Stats()
	if st.BacklogLen != backlogLen || st.BacklogFloor != st.Version-backlogLen {
		t.Fatalf("backlog after %d mutations: %+v", st.Version-v0, st)
	}
	if status, _ := getLog(t, p, v0); status != http.StatusGone {
		t.Fatalf("log before the floor: status %d, want 410", status)
	}
	status, b := getLog(t, p, st.BacklogFloor)
	if status != http.StatusOK || len(b.entries) != logBatchMax || b.through != st.BacklogFloor+logBatchMax || b.primary != st.Version {
		t.Fatalf("log at the floor: status %d, %d entries through %d (primary %d)", status, len(b.entries), b.through, b.primary)
	}

	// The follower fell behind the floor: it converges on the snapshot.
	syncFollower(t, f, p)
	assertConverged(t, f, p)
	if s := f.Stats(); s.Resyncs != 2 { // the install at open, and this one
		t.Errorf("follower stats %+v, want two snapshot installs", s)
	}
	// A little behind: caught up from the log, one capped response at a
	// time.
	for i := 0; i < 3; i++ {
		p.corpus.ApplyBatch(items)
	}
	polls := f.Stats().Polls
	syncFollower(t, f, p)
	assertConverged(t, f, p)
	if s := f.Stats(); s.Polls-polls != 3 || s.Resyncs != 2 {
		t.Errorf("catching up 3 batches of %d: %d polls, stats %+v", logBatchMax, s.Polls-polls, s)
	}
}

// TestFollowerBootstrapAndTail covers the happy path end to end: the
// install of the primary's snapshot into an empty store, then tailing
// of adds, replacements and deletes.
func TestFollowerBootstrapAndTail(t *testing.T) {
	p := newPrimary(t, nil, 8)
	f := newFollower(t, p)
	if got := f.Corpus().Version(); got != p.corpus.Version() {
		t.Fatalf("bootstrap version = %d, primary %d", got, p.corpus.Version())
	}
	assertConverged(t, f, p)

	var ids []int
	for i := 0; i < 25; i++ {
		ids = append(ids, p.addRecipe(fmt.Sprintf("tail recipe %03d", i)))
	}
	syncFollower(t, f, p)
	assertConverged(t, f, p)

	p.upsert(ids[0], "renamed after replication")
	if _, err := p.corpus.Remove(ids[1]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	syncFollower(t, f, p)
	assertConverged(t, f, p)

	st := f.Stats()
	if st.Lag != 0 || st.Applied != 27 || st.Resyncs != 1 || st.PrimaryVersion != p.corpus.Version() {
		t.Errorf("stats after catch-up: %+v", st)
	}
}

// TestFollowerCompactionBetweenPolls mutates heavily and checkpoints
// the primary's store (compaction is a checkpoint) between two polls.
// A checkpoint rewrites the primary's disk, not its corpus, so it is no
// event for the follower: the log carries the mutations and the
// follower converges without a resync.
func TestFollowerCompactionBetweenPolls(t *testing.T) {
	p := newPrimary(t, nil, 24)
	f := newFollower(t, p)
	for i := 0; i < 12; i++ {
		if _, err := p.corpus.Remove(i); err != nil {
			t.Fatalf("Remove(%d): %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		p.addRecipe(fmt.Sprintf("post-compaction recipe %03d", i))
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	syncFollower(t, f, p)
	assertConverged(t, f, p)
	if st := f.Stats(); st.Resyncs != 1 {
		t.Errorf("the checkpoint caused a resync: %+v", st)
	}
}

// TestFeedServesLastGoodUnderSyncFault pins the durability rule: when
// the primary's fsync fails, the feed sends nothing — the follower
// never claims a version whose mutations the primary's log might still
// lose — and once writes recover the follower catches up.
func TestFeedServesLastGoodUnderSyncFault(t *testing.T) {
	inj := storage.NewErrInjector()
	p := newPrimary(t, inj, 4)
	f := newFollower(t, p)
	v0 := f.Corpus().Version()

	p.addRecipe("written but not yet durable")
	inj.Arm(syscall.EIO, storage.FaultSync)
	if err := f.Poll(); err == nil {
		t.Fatal("poll under a sync fault succeeded")
	}
	if got := f.Corpus().Version(); got != v0 {
		t.Fatalf("follower advanced to %d under sync fault, want %d", got, v0)
	}

	inj.Clear()
	if err := p.db.TryRecoverWrites(); err != nil {
		t.Fatalf("TryRecoverWrites: %v", err)
	}
	syncFollower(t, f, p)
	assertConverged(t, f, p)
}

// TestFollowerRejectsABatchWhole: a log response that does not follow
// from the follower's corpus applies nothing — not its valid entries
// either — leaves the version where it was, and makes the next poll
// converge on the snapshot.
func TestFollowerRejectsABatchWhole(t *testing.T) {
	p := newPrimary(t, nil, 4)
	f := newFollower(t, p)
	v := f.Corpus().Version()
	before := f.Corpus().CanonicalDump()
	good := p.corpus.Recipe(1)
	bad := good
	bad.Ingredients = bad.Ingredients[:1] // one ingredient: invalid
	for name, b := range map[string]logBatch{
		"delete of a dead slot": {primary: v + 2, through: v + 2, entries: []logEntry{{version: v + 1, id: 1, recipe: &good}, {version: v + 2, id: 99}}},
		"invalid recipe":        {primary: v + 2, through: v + 2, entries: []logEntry{{version: v + 1, id: 1, recipe: &good}, {version: v + 2, id: 2, recipe: &bad}}},
		"stale entry":           {primary: v + 1, through: v + 1, entries: []logEntry{{version: v, id: 1, recipe: &good}}},
		"stale through":         {primary: v - 1, through: v - 1},
	} {
		f.resync = false
		if err := f.apply(b); err == nil || !f.resync {
			t.Errorf("%s: apply = %v, resync %v; want an error and a resync", name, err, f.resync)
		}
		if got := f.Corpus().CanonicalDump(); got != before {
			t.Fatalf("%s: the corpus changed:\n%s", name, got)
		}
	}
	p.addRecipe("after the rejected batches")
	syncFollower(t, f, p)
	assertConverged(t, f, p)
}

// TestFollowerCloseEndsItsLongPoll: Close cancels the request the tail
// loop has waiting on the feed, rather than waiting the long-poll out,
// and Feed.Close answers every waiting long-poll at once.
func TestFollowerCloseEndsItsLongPoll(t *testing.T) {
	p := newPrimary(t, nil, 4)
	f := newFollower(t, p)
	f.Start()
	waitLongPolls := func(n uint64) {
		for p.feed.Stats().LongPolls < n {
			time.Sleep(time.Millisecond)
		}
	}
	waitLongPolls(1)
	start := time.Now()
	f.Close()
	if took := time.Since(start); took > longPollWait/2 {
		t.Errorf("Close took %v with a long-poll in flight", took)
	}

	done := make(chan struct{})
	go func() {
		getLog(t, p, p.corpus.Version())
		close(done)
	}()
	waitLongPolls(2)
	start = time.Now()
	p.feed.Close()
	<-done
	if took := time.Since(start); took > longPollWait/2 {
		t.Errorf("a long-poll outlived Feed.Close by %v", took)
	}
}

func TestWireRoundTrip(t *testing.T) {
	r := recipedb.Recipe{ID: 7, Name: "a dish", Region: recipedb.Italy, Source: recipedb.Epicurious, Ingredients: []flavor.ID{3, 1, 2}}
	for _, b := range []logBatch{
		{},
		{primary: 9, through: 5},
		{primary: 12, through: 12, entries: []logEntry{{version: 10, id: 7, recipe: &r}, {version: 12, id: 3}}},
	} {
		got, err := decodeLog(encodeLog(b))
		if err != nil || !reflect.DeepEqual(got, b) {
			t.Errorf("log %+v decodes to %+v, %v", b, got, err)
		}
	}
	for _, s := range []snapshot{
		{recipes: []recipedb.Recipe{}},
		{version: 40, slots: 9, recipes: []recipedb.Recipe{r}},
	} {
		got, err := decodeSnapshot(encodeSnapshot(s))
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Errorf("snapshot %+v decodes to %+v, %v", s, got, err)
		}
	}
	full := encodeLog(logBatch{primary: 12, through: 12, entries: []logEntry{{version: 10, id: 7, recipe: &r}, {version: 12, id: 3}}})
	for n := 0; n < len(full); n++ {
		if _, err := decodeLog(full[:n]); !errors.Is(err, errWire) {
			t.Errorf("log cut to %d of %d bytes: %v, want errWire", n, len(full), err)
		}
	}
}
