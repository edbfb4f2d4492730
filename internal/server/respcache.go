package server

import (
	"bytes"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// DefaultResponseCacheBytes is the response cache's byte budget when
// Config.ResultCacheBytes is negative; cmd/server passes it. The whole
// working set of a read mix that repeats (64 statements, 256 recipes,
// 64 searches, 64 pairing lists: 448 answers) counts ≈ 0.33 MB, while a
// budget large enough for listings and fuzzy searches asked twice fills
// with answers nobody asks a third time.
const DefaultResponseCacheBytes = 1 << 20

// A read is a pure function of its request and the corpus version, so
// the server keeps a read's 200 answer as the bytes writeJSON encoded
// and replays them while the corpus stays at the version they were
// computed at:
//
//   - Key: method, path (and raw path), raw query and request body.
//   - Validity: one version. The first probe at a newer version drops
//     every entry at once; there is no LRU and no per-entry fence, and
//     writes never touch the cache.
//   - Storing: only an answer whose handler saw one version — the
//     version read before it equals the one read after it — so an
//     answer that read part of the corpus before a write and part after
//     is never replayed.
//   - Admission: on the second sight of a key at one version, recorded
//     in a fixed array of 64-bit hashes of key and version, so a
//     one-shot request keeps no key string and stores nothing.
//   - Budget: a full cache refuses admissions until the version moves.

// sightSlots is the size of the admission record (8 bytes a slot).
const sightSlots = 1 << 12

// maxKeyBody bounds the request body a key may hold. A larger body is
// handed to the handler unread past this point and never cached.
const maxKeyBody = 8 << 10

// entryOverhead approximates an entry's bytes beyond its key and body:
// the map slot, the entry and its Content-Length value.
const entryOverhead = 96

// jsonContentType is the Content-Type every replayed answer carries,
// shared read-only by every response header that replays one.
var jsonContentType = []string{"application/json"}

// respEntry is one stored answer. Its slices are never written after
// the entry is stored.
type respEntry struct {
	body   []byte
	length []string // the Content-Length header value
}

// respCache holds the stored answers of one corpus version.
type respCache struct {
	capacity int64
	seed     maphash.Seed

	mu      sync.Mutex
	version uint64 // the version every entry was computed at
	entries map[string]respEntry
	bytes   int64
	seen    [sightSlots]uint64

	hits        int64
	misses      int64
	firstSight  int64 // misses whose key had not been seen at the version
	invalidated int64 // entries dropped because the version moved
	rejected    int64 // admitted answers refused by the budget
}

func newRespCache(capacity int64) *respCache {
	return &respCache{capacity: capacity, seed: maphash.MakeSeed(), entries: make(map[string]respEntry)}
}

// respCacheStats are the counters /api/health reports under resultCache.
type respCacheStats struct {
	Hits, Misses, FirstSight, Invalidated, Rejected int64
	Entries                                         int
	Bytes, Capacity                                 int64
}

func (c *respCache) stats() respCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return respCacheStats{
		Hits: c.hits, Misses: c.misses, FirstSight: c.firstSight,
		Invalidated: c.invalidated, Rejected: c.rejected,
		Entries: len(c.entries), Bytes: c.bytes, Capacity: c.capacity,
	}
}

// probe looks key up at version. On a miss, room > 0 admits the answer
// for storing: the key was seen before at this version and the budget
// has room left, room bytes of it at most.
func (c *respCache) probe(key []byte, version uint64) (e respEntry, hit bool, room int64) {
	h := maphash.Bytes(c.seed, key) ^ version*0x9e3779b97f4a7c15
	c.mu.Lock()
	defer c.mu.Unlock()
	if version > c.version {
		c.invalidated += int64(len(c.entries))
		clear(c.entries)
		c.bytes, c.version = 0, version
	}
	if version == c.version {
		if e, hit = c.entries[string(key)]; hit {
			c.hits++
			return e, true, 0
		}
	}
	c.misses++
	if version < c.version {
		// Read before a write another probe has already seen: this
		// version's answers are no longer kept.
		return e, false, 0
	}
	if slot := &c.seen[h%sightSlots]; *slot != h {
		*slot = h
		c.firstSight++
		return e, false, 0
	}
	if room = c.capacity - c.bytes - entryOverhead - int64(len(key)); room <= 0 {
		c.rejected++
		return e, false, 0
	}
	return e, false, room
}

// refuse counts an admitted answer larger than the budget's room.
func (c *respCache) refuse() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
}

// miss counts a request whose answer cannot be keyed.
func (c *respCache) miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// store keeps body as key's answer at version, unless the version moved
// on or the budget has no room for it.
func (c *respCache) store(key []byte, version uint64, body []byte) {
	size := entryOverhead + int64(len(key)+len(body))
	c.mu.Lock()
	defer c.mu.Unlock()
	if version != c.version {
		return
	}
	if _, ok := c.entries[string(key)]; ok {
		return // a racing request stored it first
	}
	if c.bytes+size > c.capacity {
		c.rejected++
		return
	}
	c.entries[string(key)] = respEntry{body: body, length: []string{strconv.Itoa(len(body))}}
	c.bytes += size
}

// cacheable reports whether r is a read whose 200 answer may be stored:
// every GET but /api/health, and the four read-only POSTs.
func cacheable(r *http.Request) bool {
	switch r.Method {
	case http.MethodGet:
		return r.URL.Path != "/api/health"
	case http.MethodPost:
		switch r.URL.Path {
		case "/api/query", "/api/classify", "/api/complete", "/api/taste":
			return true
		}
	}
	return false
}

// cacheKey is a pooled key buffer. It doubles as the body the handler
// reads: the request body was read into the key, so the handler reads
// it back from there, followed by what the key did not take.
type cacheKey struct {
	buf  bytes.Buffer
	rd   bytes.Reader
	lim  io.LimitedReader
	rest io.Reader // the original body past maxKeyBody
	err  error     // the error reading the body stopped at
}

var cacheKeys = sync.Pool{New: func() interface{} { return new(cacheKey) }}

func (k *cacheKey) Read(p []byte) (int, error) {
	n, err := k.rd.Read(p)
	if err == io.EOF && k.err != nil {
		return 0, k.err
	}
	if err == io.EOF && k.rest != nil {
		return k.rest.Read(p)
	}
	return n, err
}

func (k *cacheKey) Close() error { return nil }

// build writes r's key into k, which must come cleared from the pool.
// It reports false when r's answer cannot be keyed: its body failed to
// read or is longer than maxKeyBody. Either way a POST's r.Body now
// reads from k, which the caller must keep until the handler has
// returned.
func (k *cacheKey) build(r *http.Request) bool {
	k.buf.Reset()
	k.buf.WriteString(r.Method)
	k.buf.WriteByte(0)
	k.buf.WriteString(r.URL.Path)
	k.buf.WriteByte(0)
	k.buf.WriteString(r.URL.RawPath)
	k.buf.WriteByte(0)
	k.buf.WriteString(r.URL.RawQuery)
	if r.Method != http.MethodPost || r.Body == nil {
		return true
	}
	k.buf.WriteByte(0)
	head := k.buf.Len()
	k.lim = io.LimitedReader{R: r.Body, N: maxKeyBody + 1}
	_, k.err = k.buf.ReadFrom(&k.lim)
	body := k.buf.Bytes()[head:]
	if len(body) > maxKeyBody {
		k.rest = r.Body
	}
	k.rd.Reset(body)
	r.Body = k
	return k.err == nil && k.rest == nil
}

// serveCached answers r from the response cache when it holds r's
// answer at version, the corpus version the gate read; otherwise next
// answers it, and its 200 answer is stored when admitted and computed
// wholly at version.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, version uint64, next http.Handler) {
	k := cacheKeys.Get().(*cacheKey)
	body := r.Body
	defer func() {
		r.Body = body
		k.lim.R, k.rest, k.err = nil, nil, nil // keep no request alive in the pool
		cacheKeys.Put(k)
	}()
	if !k.build(r) {
		s.cache.miss()
		next.ServeHTTP(w, r)
		return
	}
	key := k.buf.Bytes()
	e, hit, room := s.cache.probe(key, version)
	if hit {
		h := w.Header()
		h["Content-Type"] = jsonContentType
		h["Content-Length"] = e.length
		w.WriteHeader(http.StatusOK)
		w.Write(e.body) // fails only once the client is gone
		return
	}
	if room == 0 {
		next.ServeHTTP(w, r)
		return
	}
	rc := &responseCapture{ResponseWriter: w, room: room}
	next.ServeHTTP(rc, r)
	switch {
	case rc.tooBig:
		s.cache.refuse()
	case rc.body != nil && s.cfg.Store.Version() == version:
		s.cache.store(key, version, rc.body)
	}
}

// responseCapture is the writer an admitted request's handler answers
// through: writeJSON hands it a copy of a 200 body that fits in room,
// or marks the body tooBig.
type responseCapture struct {
	http.ResponseWriter
	room   int64
	body   []byte
	tooBig bool
}

// capture keeps a copy of a 200 body encoded for w, when w is an
// admitted request's responseCapture.
func capture(w http.ResponseWriter, status int, body []byte) {
	c, ok := w.(*responseCapture)
	switch {
	case !ok || status != http.StatusOK:
	case int64(len(body)) > c.room:
		c.tooBig = true
	default:
		c.body = bytes.Clone(body)
	}
}
