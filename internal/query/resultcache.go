package query

import (
	"container/list"
	"sync"
)

// DefaultResultCacheBytes is the byte budget commands use for the
// result cache unless a flag overrides it.
const DefaultResultCacheBytes = 16 << 20

// cachedResult is one materialized result, fenced by the corpus
// version it was computed at. The Result is shared with every hit, so
// callers must treat it as immutable (Run's contract).
type cachedResult struct {
	key     string // normalized statement
	version uint64
	res     *Result
	size    int64 // resultBytes estimate, fixed at insert
}

// resultCache is a byte-bounded LRU keyed by normalized statement
// text, version-fenced against the corpus. At most one entry per
// statement is kept — an entry computed at an older corpus version can
// never be served again, so the first probe after a version bump drops
// it (lazy invalidation) and recomputes. Entries for statements that
// stop being asked age out through the LRU bound instead of an eager
// sweep: a version bump costs O(1), not O(entries). What is admitted is
// the engine's choice: RunContext puts a result only when the
// statement's plan was already cached.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used

	hits        int64
	misses      int64
	evicted     int64 // dropped by the byte bound
	invalidated int64 // stale-version entries dropped on probe
	rejected    int64 // results larger than the whole budget
	firstSight  int64 // executions not cached: the statement was new
}

func newResultCache(maxBytes int64) *resultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultCacheBytes
	}
	return &resultCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// get returns the cached result for (key, version). A same-key entry
// at an older version is dead — its version can never recur — so it
// is evicted on the spot and the probe counts as a miss. An entry at a
// newer version means the probe read the version before a write landed
// and a racing Run cached the fresher result: a plain miss, and the
// entry stays for the probes that follow.
func (rc *resultCache) get(key string, version uint64) (*Result, bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.entries[key]
	if !ok {
		rc.misses++
		return nil, false
	}
	e := el.Value.(*cachedResult)
	if e.version != version {
		if e.version < version {
			rc.removeLocked(el, e)
			rc.invalidated++
		}
		rc.misses++
		return nil, false
	}
	rc.hits++
	rc.lru.MoveToFront(el)
	return e.res, true
}

// put inserts a result computed at version, evicting least recently
// used entries until the byte budget holds. Oversized results are not
// cached at all.
func (rc *resultCache) put(key string, version uint64, res *Result) {
	size := resultBytes(key, res)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if size > rc.maxBytes {
		rc.rejected++
		return
	}
	if el, ok := rc.entries[key]; ok { // racing Run of the same statement
		e := el.Value.(*cachedResult)
		if e.version > version {
			// A slow execution finishing after a mutation must not
			// clobber the fresher result (versions are monotonic).
			return
		}
		rc.removeLocked(el, e)
	}
	e := &cachedResult{key: key, version: version, res: res, size: size}
	rc.entries[key] = rc.lru.PushFront(e)
	rc.bytes += size
	for rc.bytes > rc.maxBytes {
		oldest := rc.lru.Back()
		rc.removeLocked(oldest, oldest.Value.(*cachedResult))
		rc.evicted++
	}
}

// skipFirstSight counts an execution left uncached because its
// statement had no cached plan: results are admitted from a
// statement's second execution on.
func (rc *resultCache) skipFirstSight() {
	rc.mu.Lock()
	rc.firstSight++
	rc.mu.Unlock()
}

// removeLocked unlinks one entry; callers hold rc.mu.
func (rc *resultCache) removeLocked(el *list.Element, e *cachedResult) {
	rc.lru.Remove(el)
	delete(rc.entries, e.key)
	rc.bytes -= e.size
}

// ResultCacheStats reports result-cache effectiveness counters.
type ResultCacheStats struct {
	// Enabled reports whether the engine has a result cache at all.
	Enabled bool
	// Hits counts Runs served without touching plan or corpus.
	Hits int64
	// Misses counts probes that had to execute (including probes that
	// found only a stale-version entry, or one newer than the probe).
	Misses int64
	// Entries is the current cache population.
	Entries int
	// Bytes is the estimated memory the cached results occupy.
	Bytes int64
	// Capacity is the byte budget.
	Capacity int64
	// Evicted counts entries dropped by the byte bound.
	Evicted int64
	// Invalidated counts stale-version entries dropped lazily on probe
	// after a corpus mutation.
	Invalidated int64
	// Rejected counts results too large to cache at all.
	Rejected int64
	// FirstSight counts executions not cached because their statement
	// was new: its plan was not in the plan cache.
	FirstSight int64
}

func (rc *resultCache) stats() ResultCacheStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return ResultCacheStats{
		Enabled:     true,
		Hits:        rc.hits,
		Misses:      rc.misses,
		Entries:     rc.lru.Len(),
		Bytes:       rc.bytes,
		Capacity:    rc.maxBytes,
		Evicted:     rc.evicted,
		Invalidated: rc.invalidated,
		Rejected:    rc.rejected,
		FirstSight:  rc.firstSight,
	}
}

// resultBytes estimates the resident size of one cached result: the
// key, the column headers, and per row the slice header plus each
// Value's struct and string payload. Close enough to bound memory; the
// budget is a limit on estimated, not measured, bytes.
func resultBytes(key string, res *Result) int64 {
	const (
		entryOverhead = 96 // cachedResult + map/list bookkeeping
		valueSize     = 48 // Value struct
		sliceHeader   = 24
	)
	n := int64(entryOverhead + len(key))
	for _, c := range res.Columns {
		n += sliceHeader + int64(len(c))
	}
	for _, row := range res.Rows {
		n += sliceHeader + int64(len(row))*valueSize
		for _, v := range row {
			n += int64(len(v.Str))
		}
	}
	return n
}
