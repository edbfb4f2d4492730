package query

import (
	"container/list"
	"strings"
	"sync"
)

// DefaultPlanCacheCapacity bounds the engine's plan cache. Dashboards
// replay a small set of hot statements, so a few hundred entries cover
// the working set while bounding memory.
const DefaultPlanCacheCapacity = 256

// cachedPlan is one fully-front-loaded statement: the parse tree bound
// and compiled (function arguments resolved to catalog IDs, select list
// and WHERE types checked, WHERE compiled to a predicate). It is
// immutable after construction — the executor keeps its cursors on its
// own stack — so one cached plan serves concurrent Runs.
type cachedPlan struct {
	key string
	b   *boundQuery
}

// planCache is a mutex-guarded LRU keyed by normalized statement text.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	hits    int64
	misses  int64
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		lru:     list.New(),
	}
}

// get returns the cached plan for key, promoting it to most recent.
func (pc *planCache) get(key string) (*cachedPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.entries[key]
	if !ok {
		pc.misses++
		return nil, false
	}
	pc.hits++
	pc.lru.MoveToFront(el)
	return el.Value.(*cachedPlan), true
}

// put inserts a plan, evicting the least recently used entry at
// capacity.
func (pc *planCache) put(p *cachedPlan) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.entries[p.key]; ok {
		el.Value = p
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[p.key] = pc.lru.PushFront(p)
	for pc.lru.Len() > pc.cap {
		oldest := pc.lru.Back()
		pc.lru.Remove(oldest)
		delete(pc.entries, oldest.Value.(*cachedPlan).key)
	}
}

// CacheStats reports plan-cache effectiveness counters.
type CacheStats struct {
	// Hits counts Run calls that skipped Parse+bind.
	Hits int64
	// Misses counts Run calls that planned from scratch.
	Misses int64
	// Entries is the current cache population.
	Entries int
	// Capacity is the eviction bound.
	Capacity int
}

func (pc *planCache) stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{
		Hits:     pc.hits,
		Misses:   pc.misses,
		Entries:  pc.lru.Len(),
		Capacity: pc.cap,
	}
}

// normalizeStatement canonicalizes whitespace outside string literals
// so trivially reformatted statements share a cache slot. Quoted spans
// ('...' or "...", doubled-quote escapes included) are copied verbatim
// — collapsing whitespace inside a literal would alias semantically
// distinct statements onto one cache key. Case is preserved
// throughout: only the lexer knows which words are keywords.
func normalizeStatement(input string) string {
	var b strings.Builder
	b.Grow(len(input))
	var quote byte // nonzero while inside a literal opened by this char
	pendingSpace := false
	for i := 0; i < len(input); i++ {
		c := input[i]
		if quote != 0 {
			b.WriteByte(c)
			if c == quote {
				quote = 0
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r', '\v', '\f':
			pendingSpace = true
		default:
			if pendingSpace && b.Len() > 0 {
				b.WriteByte(' ')
			}
			pendingSpace = false
			b.WriteByte(c)
			if c == '\'' || c == '"' {
				quote = c
			}
		}
	}
	return b.String()
}
