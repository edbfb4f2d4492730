package replica

import (
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/httpmw"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
)

// Feed is the primary side of replication: the log and snapshot
// endpoints, designed to be served from a dedicated listener
// (cmd/server -replication-listen) so replication traffic never
// competes with client requests for the API listener's connection and
// rate budgets. See the package comment for the protocol.
type Feed struct {
	db     *storage.Store
	corpus *recipedb.Store

	mu sync.Mutex
	// backlog holds, in version order, every mutation with a version in
	// (floor, last] that changed a slot; last is the newest version the
	// corpus published.
	backlog     []logEntry
	floor, last uint64
	// grew is closed, and replaced, whenever last advances.
	grew chan struct{}

	closeOnce sync.Once
	closed    chan struct{}

	logRequests atomic.Uint64
	longPolls   atomic.Uint64
	resyncs     atomic.Uint64
	snapshots   atomic.Uint64
}

// NewFeed builds the replication feed over an open primary store pair.
// Its log starts at the corpus's current version.
func NewFeed(db *storage.Store, corpus *recipedb.Store) *Feed {
	f := &Feed{db: db, corpus: corpus, grew: make(chan struct{}), closed: make(chan struct{})}
	corpus.SubscribeBatch(func(v *recipedb.View) { f.floor, f.last = v.Version, v.Version }, f.append)
	return f
}

// append records one committed write batch. It runs inside the corpus's
// write critical section, so it only records and wakes.
func (f *Feed) append(ms []recipedb.Mutation) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range ms {
		if m.Old != nil || m.New != nil { // not a bare version bump
			f.backlog = append(f.backlog, logEntry{version: m.Version, id: m.ID, recipe: m.New})
		}
	}
	f.last = ms[len(ms)-1].Version
	if len(f.backlog) > 2*backlogLen {
		cut := len(f.backlog) - backlogLen
		f.floor = f.backlog[cut-1].version
		f.backlog = slices.Clone(f.backlog[cut:])
	}
	close(f.grew)
	f.grew = make(chan struct{})
}

// Close ends every waiting and future long-poll at once. cmd/server
// calls it when the feed's listener starts shutting down.
func (f *Feed) Close() {
	f.closeOnce.Do(func() { close(f.closed) })
}

// Handler returns the feed's HTTP handler, routing LogPath and
// SnapshotPath. Errors use the structured envelope.
func (f *Feed) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+LogPath, f.handleLog)
	mux.HandleFunc("GET "+SnapshotPath, f.handleSnapshot)
	return httpmw.EnvelopeFallback(mux)
}

func (f *Feed) handleLog(w http.ResponseWriter, r *http.Request) {
	after, err := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)
	if err != nil {
		httpmw.WriteError(w, http.StatusBadRequest, httpmw.CodeBadRequest, "after must be a corpus version")
		return
	}
	f.logRequests.Add(1)
	f.mu.Lock()
	last, grew := f.last, f.grew
	f.mu.Unlock()
	if after == last {
		f.longPolls.Add(1)
		wait := time.NewTimer(longPollWait)
		defer wait.Stop()
		select {
		case <-grew:
		case <-wait.C:
		case <-r.Context().Done():
		case <-f.closed:
		}
	}

	f.mu.Lock()
	if after < f.floor || after > f.last {
		floor, last := f.floor, f.last
		f.mu.Unlock()
		f.resyncs.Add(1)
		httpmw.WriteError(w, http.StatusGone, httpmw.CodeResync,
			fmt.Sprintf("the log holds versions (%d, %d]; version %d needs the snapshot", floor, last, after))
		return
	}
	i := sort.Search(len(f.backlog), func(i int) bool { return f.backlog[i].version > after })
	batch := logBatch{primary: f.last, through: f.last}
	batch.entries = slices.Clone(f.backlog[i:min(len(f.backlog), i+logBatchMax)])
	if len(f.backlog)-i > logBatchMax {
		batch.through = batch.entries[len(batch.entries)-1].version
	}
	f.mu.Unlock()

	// Everything sampled was written to the store before it reached the
	// backlog; the fsync makes it durable before any of it leaves.
	if batch.through > after {
		if err := f.db.Sync(); err != nil {
			httpmw.WriteError(w, http.StatusServiceUnavailable, httpmw.CodeStorageUnavailable, err.Error())
			return
		}
	}
	writeBody(w, encodeLog(batch))
}

func (f *Feed) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	f.snapshots.Add(1)
	var snap snapshot
	f.corpus.Read(func(v *recipedb.View) {
		snap = snapshot{version: v.Version, slots: v.Slots(), recipes: make([]recipedb.Recipe, 0, v.Len())}
		for id := 0; id < v.Slots(); id++ {
			if r := v.Recipe(id); !r.Deleted {
				snap.recipes = append(snap.recipes, *r)
			}
		}
	})
	if err := f.db.Sync(); err != nil { // as in handleLog: durable before it leaves
		httpmw.WriteError(w, http.StatusServiceUnavailable, httpmw.CodeStorageUnavailable, err.Error())
		return
	}
	writeBody(w, encodeSnapshot(snap))
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// FeedStats is a snapshot of feed-side counters for /api/health.
type FeedStats struct {
	// Version is the newest corpus version in the log.
	Version uint64 `json:"version"`
	// BacklogFloor and BacklogLen describe the in-memory backlog: it
	// serves followers at any version from BacklogFloor on, and holds
	// BacklogLen mutations.
	BacklogFloor uint64 `json:"backlogFloor"`
	BacklogLen   int    `json:"backlogLen"`
	// LogRequests counts log reads; LongPolls those that found nothing
	// newer and waited; Resyncs those answered resync; Snapshots the
	// snapshots served.
	LogRequests uint64 `json:"logRequests"`
	LongPolls   uint64 `json:"longPolls"`
	Resyncs     uint64 `json:"resyncs"`
	Snapshots   uint64 `json:"snapshots"`
}

// Stats returns the feed counters.
func (f *Feed) Stats() FeedStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FeedStats{
		Version:      f.last,
		BacklogFloor: f.floor,
		BacklogLen:   len(f.backlog),
		LogRequests:  f.logRequests.Load(),
		LongPolls:    f.longPolls.Load(),
		Resyncs:      f.resyncs.Load(),
		Snapshots:    f.snapshots.Load(),
	}
}
