package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/httpmw"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
)

// FollowerConfig configures a replica follower.
type FollowerConfig struct {
	// Primary is the primary's replication base URL (the dedicated
	// listener from -replication-listen), e.g. "http://10.0.0.1:7071".
	Primary string
	// DB is the follower's own store, opened read-write by the caller,
	// which closes it after Close. The follower's corpus writes through
	// to it, so a restart resumes from it.
	DB *storage.Store
	// Catalog must be built from the same flavor config (same seed) as
	// the primary's; LoadCorpus enforces this against the snapshot's
	// recorded config.
	Catalog *flavor.Catalog
	// HTTPClient overrides the feed client (nil: http.DefaultClient).
	HTTPClient *http.Client
	// Logger receives poll errors and lifecycle notes; nil discards.
	Logger *log.Logger
}

// Follower tails a primary's replication feed into an in-memory corpus
// serving the full read API, written through to its own store. See the
// package comment for the protocol.
type Follower struct {
	cfg    FollowerConfig
	corpus *recipedb.Store

	// ctx is canceled by Close; every request carries it.
	ctx     context.Context
	cancel  context.CancelFunc
	started atomic.Bool
	done    chan struct{}

	// mu serializes polls; resync, under it, makes the next poll
	// converge on the snapshot instead of reading the log.
	mu     sync.Mutex
	resync bool

	primaryVersion atomic.Uint64
	polls          atomic.Uint64
	pollErrors     atomic.Uint64
	applied        atomic.Uint64
	resyncs        atomic.Uint64

	errMu   sync.Mutex
	lastErr string
}

// errResync is the log's answer for a version it cannot serve.
var errResync = errors.New("replica: the log cannot serve this version")

// OpenFollower opens a follower on its store. A store holding a corpus
// snapshot resumes at the snapshot's version without the network; an
// empty or unusable one installs the primary's snapshot and saves it.
func OpenFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	cfg.Primary = strings.TrimRight(cfg.Primary, "/")
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	corpus, err := storage.LoadCorpus(cfg.DB, cfg.Catalog)
	if err != nil {
		f.logf("follower: no usable corpus in the local store (%v); installing the primary's snapshot", err)
		if corpus, err = f.install(); err != nil {
			cancel()
			return nil, err
		}
	}
	corpus.SetBackend(cfg.DB)
	f.corpus = corpus
	f.logf("follower: at version %d with %d recipes", corpus.Version(), corpus.Len())
	return f, nil
}

// install copies the primary's snapshot into a fresh corpus and saves
// it as the local store's snapshot.
func (f *Follower) install() (*recipedb.Store, error) {
	snap, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	corpus := recipedb.NewStore(f.cfg.Catalog)
	if err := snap.installInto(corpus); err != nil {
		return nil, err
	}
	if err := storage.SaveCorpus(f.cfg.DB, corpus); err != nil {
		return nil, fmt.Errorf("replica: saving the primary's snapshot: %w", err)
	}
	f.resyncs.Add(1)
	return corpus, nil
}

// installInto loads the snapshot into an empty corpus with no backend.
func (s *snapshot) installInto(corpus *recipedb.Store) error {
	if n, err := corpus.Load(s.recipes); err != nil {
		return fmt.Errorf("replica: snapshot slot %d: %w", s.recipes[n].ID, err)
	}
	corpus.SyncSlots(s.slots) // no backend attached: nothing to fail
	corpus.SyncVersion(s.version)
	return nil
}

// Corpus returns the follower's live read corpus. Its Version() is the
// read-your-writes token the server's gating compares against.
func (f *Follower) Corpus() *recipedb.Store { return f.corpus }

// Start runs the tail loop until Close: one long-poll of the log after
// another, with a pause of retryWait after a failed round.
func (f *Follower) Start() {
	f.started.Store(true)
	go func() {
		defer close(f.done)
		for f.ctx.Err() == nil {
			err := f.Poll()
			if err == nil || f.ctx.Err() != nil {
				continue
			}
			f.pollErrors.Add(1)
			f.errMu.Lock()
			f.lastErr = err.Error()
			f.errMu.Unlock()
			f.logf("follower: poll: %v", err)
			select {
			case <-f.ctx.Done():
			case <-time.After(retryWait):
			}
		}
	}()
}

// Close stops the tail loop, canceling its in-flight request, and waits
// for it to exit. The caller closes the store afterwards.
func (f *Follower) Close() {
	f.cancel()
	if f.started.Load() {
		<-f.done
	}
}

// Poll performs one replication round: read the log after the corpus
// version (long-polling when there is nothing newer) and apply what it
// answers, or converge on the snapshot when the log cannot serve the
// follower. Exported so tests can drive replication step by step; safe
// to call beside the Start loop (rounds serialize).
func (f *Follower) Poll() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.polls.Add(1)
	if f.resync {
		return f.converge()
	}
	body, err := f.get(LogPath + "?after=" + strconv.FormatUint(f.corpus.Version(), 10))
	if errors.Is(err, errResync) {
		return f.converge()
	}
	if err != nil {
		return err
	}
	batch, err := decodeLog(body)
	if err != nil {
		return err
	}
	f.notePrimary(batch.primary)
	return f.apply(batch)
}

// apply installs one log response as one batch and lands on its
// version. A response that does not follow from the local corpus — an
// entry at or below the corpus version, an invalid recipe, a delete of a
// slot that is not live — applies nothing and schedules a resync; so
// does a failed local write, which can leave part of the batch applied.
func (f *Follower) apply(b logBatch) error {
	items, err := f.plan(b)
	if err == nil {
		for i, res := range f.corpus.ApplyBatch(items) {
			if res.Err != nil {
				err = fmt.Errorf("replica: applying slot %d: %w", items[i].ID, res.Err)
				break
			}
		}
	}
	if err == nil {
		err = f.corpus.SyncVersion(b.through)
	}
	if err != nil {
		f.resync = true
		return err
	}
	f.applied.Add(uint64(len(items)))
	return nil
}

// plan turns a log response into the batch that applies it, checking
// every entry against the local corpus first.
func (f *Follower) plan(b logBatch) (items []recipedb.BatchItem, err error) {
	from := f.corpus.Version()
	if b.through < from || len(b.entries) > 0 && b.entries[0].version <= from {
		return nil, fmt.Errorf("replica: log response through version %d does not follow version %d", b.through, from)
	}
	f.corpus.Read(func(v *recipedb.View) {
		live := make(map[int]bool) // slots the batch has touched so far
		for _, e := range b.entries {
			was, touched := live[e.id]
			if !touched {
				was = e.id < v.Slots() && !v.Recipe(e.id).Deleted
			}
			live[e.id] = e.recipe != nil
			if r := e.recipe; r != nil {
				if err = f.corpus.Validate(r.Name, r.Region, r.Source, r.Ingredients); err != nil {
					err = fmt.Errorf("replica: version %d: %w", e.version, err)
					return
				}
				items = append(items, recipedb.BatchItem{ID: e.id, Name: r.Name, Region: r.Region, Source: r.Source, Ingredients: r.Ingredients})
				continue
			}
			if !was {
				err = fmt.Errorf("replica: version %d deletes slot %d, which is not live here", e.version, e.id)
				return
			}
			items = append(items, recipedb.BatchItem{Remove: true, ID: e.id})
		}
	})
	return items, err
}

// converge fetches the primary's snapshot and brings the live corpus to
// it slot by slot, so readers keep the same store throughout, then lands
// on the snapshot's version. Until it succeeds, every poll retries it.
func (f *Follower) converge() error {
	f.resync = true
	snap, err := f.snapshot()
	if err != nil {
		return err
	}
	return f.convergeOn(snap)
}

func (f *Follower) convergeOn(snap snapshot) error {
	target := recipedb.NewStore(f.cfg.Catalog)
	if err := snap.installInto(target); err != nil {
		return err
	}
	items := diffItems(f.corpus, target)
	// Applying the difference takes a version per slot. The follower
	// holds the primary's corpus as of its version or later, and every
	// slot that differs changed in a version since, so the difference
	// fits below the snapshot's version — unless the snapshot comes from
	// a primary this follower never followed (one that lost its store),
	// whose corpus is refused rather than served under versions it
	// never had.
	if v, slots := f.corpus.Version(), f.corpus.Slots(); snap.version < v+uint64(len(items)) || target.Slots() < slots {
		return fmt.Errorf("replica: the primary's snapshot (version %d, %d slots) does not follow this follower's corpus (version %d, %d slots, %d differing)",
			snap.version, target.Slots(), v, slots, len(items))
	}
	for i, res := range f.corpus.ApplyBatch(items) {
		if res.Err != nil {
			return fmt.Errorf("replica: converging slot %d: %w", items[i].ID, res.Err)
		}
	}
	if err := f.corpus.SyncSlots(target.Slots()); err != nil {
		return err
	}
	if err := f.corpus.SyncVersion(target.Version()); err != nil {
		return err
	}
	f.resync = false
	f.resyncs.Add(1)
	f.notePrimary(snap.version)
	f.logf("follower: converged on the primary's snapshot at version %d (%d slots changed)", snap.version, len(items))
	return nil
}

func (f *Follower) snapshot() (snapshot, error) {
	body, err := f.get(SnapshotPath)
	if err != nil {
		return snapshot{}, err
	}
	return decodeSnapshot(body)
}

// get reads one feed response body; a resync answer yields errResync.
func (f *Follower) get(path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, f.cfg.Primary+path, nil)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	resp, err := f.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("replica: reading %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env httpmw.Envelope
		json.Unmarshal(body, &env)
		if env.Error.Code == httpmw.CodeResync {
			return nil, fmt.Errorf("%w: %s", errResync, env.Error.Message)
		}
		return nil, fmt.Errorf("replica: %s: status %d %s %s", path, resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if len(body) > maxResponseBytes {
		return nil, fmt.Errorf("replica: %s: response exceeds %d bytes", path, maxResponseBytes)
	}
	return body, nil
}

// notePrimary raises the newest primary version seen. Callers hold mu.
func (f *Follower) notePrimary(v uint64) {
	if v > f.primaryVersion.Load() {
		f.primaryVersion.Store(v)
	}
}

// diffItems computes the batch that mutates live's state into
// target's, slot by slot.
func diffItems(live, target *recipedb.Store) []recipedb.BatchItem {
	var items []recipedb.BatchItem
	target.Read(func(tv *recipedb.View) {
		live.Read(func(lv *recipedb.View) {
			slots := tv.Slots()
			if lv.Slots() > slots {
				slots = lv.Slots()
			}
			for id := 0; id < slots; id++ {
				var t, l *recipedb.Recipe
				if id < tv.Slots() {
					t = tv.Recipe(id)
				}
				if id < lv.Slots() {
					l = lv.Recipe(id)
				}
				tLive := t != nil && !t.Deleted
				lLive := l != nil && !l.Deleted
				switch {
				case !tLive && !lLive:
				case !tLive && lLive:
					items = append(items, recipedb.BatchItem{Remove: true, ID: id})
				case tLive && (!lLive || !sameRecipe(t, l)):
					items = append(items, recipedb.BatchItem{
						ID: id, Name: t.Name, Region: t.Region, Source: t.Source,
						Ingredients: append([]flavor.ID(nil), t.Ingredients...),
					})
				}
			}
		})
	})
	return items
}

func sameRecipe(a, b *recipedb.Recipe) bool {
	if a.Name != b.Name || a.Region != b.Region || a.Source != b.Source || len(a.Ingredients) != len(b.Ingredients) {
		return false
	}
	for i := range a.Ingredients {
		if a.Ingredients[i] != b.Ingredients[i] {
			return false
		}
	}
	return true
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logger != nil {
		f.cfg.Logger.Printf(format, args...)
	}
}

// FollowerStats is a follower health snapshot for /api/health.
type FollowerStats struct {
	Primary        string `json:"primary"`
	PrimaryVersion uint64 `json:"primaryVersion"`
	Version        uint64 `json:"version"`
	// Lag is the distance, in versions, to the newest primary version
	// seen (0 when caught up).
	Lag        uint64 `json:"lag"`
	Polls      uint64 `json:"polls"`
	PollErrors uint64 `json:"pollErrors"`
	// Applied counts the mutations applied from the log; Resyncs the
	// snapshots installed (at open from an empty or unusable store, and
	// on a resync).
	Applied   uint64 `json:"applied"`
	Resyncs   uint64 `json:"resyncs"`
	LastError string `json:"lastError,omitempty"`
}

// Stats returns the follower counters.
func (f *Follower) Stats() FollowerStats {
	f.errMu.Lock()
	lastErr := f.lastErr
	f.errMu.Unlock()
	pv, v := f.primaryVersion.Load(), f.corpus.Version()
	var lag uint64
	if pv > v {
		lag = pv - v
	}
	return FollowerStats{
		Primary:        f.cfg.Primary,
		PrimaryVersion: pv,
		Version:        v,
		Lag:            lag,
		Polls:          f.polls.Load(),
		PollErrors:     f.pollErrors.Load(),
		Applied:        f.applied.Load(),
		Resyncs:        f.resyncs.Load(),
		LastError:      lastErr,
	}
}
