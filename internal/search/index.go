// Package search provides full-text search over the recipe corpus: an
// inverted index with TF-IDF ranking, boolean modes and fuzzy term
// expansion. The paper's online CulinaryDB front end offers recipe
// search; this package is the equivalent capability for the Go library
// and the HTTP server.
//
// The index is live: NewLive subscribes it to the store's mutation
// feed and maintains the posting lists incrementally under the corpus
// write lock, so a recipe is searchable the moment its upsert is
// acknowledged and gone the moment its delete is. After quiescing, the
// incrementally-maintained index is byte-identical (CanonicalDump) to
// a fresh Build of the same corpus.
//
// # The query kernel
//
// Posting lists are doc-ascending and duplicate-free (the invariant the
// dump equality above enforces), so SearchView is a k-way merge over
// one cursor per query term feeding a bounded heap of the best Limit
// hits. It keeps no per-document state and allocates for the query and
// the result only, never per posting. Three contracts make its hits the
// hits of the map-and-sort-everything kernel it replaced, which
// reference_test.go keeps (reading liveness and region from the view)
// and compares against bit for bit:
//
//   - Merge order is summation order. A document's score is the sum of
//     its terms' tf/docLen × idf contributions, added in query-term
//     order starting from zero — the order the old accumulator received
//     them in — so every float64 comes out with the same bits.
//   - Ranking is a strict total order: score descending, then recipe ID
//     ascending, and IDs are unique within a result. Keeping the best k
//     of a stream and then sorting them therefore equals sorting
//     everything and truncating to k; there are no ties to break
//     differently.
//   - Every score is finite. A posting for a document implies the
//     document has at least one token (docLen ≥ 1), and a posting list
//     never outnumbers the live documents, so idf ≥ 0 and no NaN can
//     reach the comparisons.
//
// The kernel tests no candidate for liveness: a live index's postings
// hold only live documents by construction. Build skips tombstones, and
// a delete removes the recipe's postings inside the corpus write
// critical section that tombstones it, so no Read ever sees a posting
// for a deleted slot. The dump comparison of a live index with a fresh
// Build witnesses it. The index keeps no copy of a slot's liveness or
// region, the live count or the version: the idf reads the view's live
// count, and only a region-filtered search reads a candidate's recipe.
//
// # The build
//
// Build and NewLive cut the slot range into one contiguous span per
// worker (GOMAXPROCS of them) and index the spans concurrently, each into
// a posting map of its own; a term's list is then the spans' lists
// joined in worker order. Every document of span w precedes every
// document of span w+1, each span visits its documents in ascending
// order, and no document belongs to two spans, so the joined list is
// doc-ascending and duplicate-free by construction — entry for entry the
// list one pass over all slots builds, at any worker count. That is the
// invariant the kernel above merges on, the one incremental maintenance
// preserves, and the one TestCanonicalDumpDigest and the live-vs-Build
// dump comparisons witness. The join appends onto the first span's
// lists, so on one worker it copies nothing and the lists keep the spare
// capacity append growth leaves them — room the live index's first
// inserts use (lists sized exactly would each be reallocated by their
// first insert, and measured +4 % peak RSS on the write workloads).
//
// # Postings
//
// A posting is two int32s, 8 bytes: the doc (recipe slot) and its tf.
// Doc IDs are below the corpus's Slots(), the HTTP API refuses IDs at or
// above that bound, and both the corpus and the index's docLen keep an
// entry per slot, so an ID past math.MaxInt32 would need tens of
// gigabytes of slot tables before it needed a wider posting. A tf counts
// tokens of one recipe's text. Scores are unchanged by the narrowing:
// float64(int32(x)) == float64(x) for every value that fits.
//
// # Locks
//
// idx.mu guards the postings, docLen, the vocabulary and ApplyBatch's
// scratch count maps. The mutation path takes it inside the corpus
// write lock (store → index) and patches lists in place: a mutation
// carrying both Old and New diffs their term counts, rewriting the tf of
// a term both recipes hold where it differs and inserting or removing
// only the others, so only those can enter or leave the vocabulary.
// SearchView runs inside its caller's Store.Read and takes idx.mu
// there; Search and CanonicalDump take the Read themselves, then idx.mu
// — always store → index, never the reverse.
//
// For a live index the corpus lock alone would order every access, but
// idx.mu stays: an index built with Build can be patched with
// ApplyBatch by a caller that holds no corpus lock while other
// goroutines search it, and Vocabulary and TopTerms read outside any
// Read.
package search

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/textproc"
)

// Mode selects how multiple query terms combine.
type Mode int

// Query modes.
const (
	// ModeAny ranks documents matching at least one term (OR).
	ModeAny Mode = iota
	// ModeAll keeps only documents matching every term (AND).
	ModeAll
)

// posting is one document's entry in a term's posting list. Lists stay
// doc-ascending under incremental maintenance (binary insert), the
// same order a fresh Build produces. Both fields are int32 (see
// "Postings" in the package comment for why they fit).
type posting struct {
	doc int32 // recipe ID
	tf  int32 // term frequency within the document
}

// Index is an inverted index over recipe names and ingredient names.
// Built once with Build it is a static snapshot; built with NewLive it
// tracks the store. All methods are safe for concurrent use.
type Index struct {
	// store is the corpus the index was built from; Search and
	// CanonicalDump read it.
	store *recipedb.Store
	// ingTokens[id] is tokenize(catalog name of ingredient id), computed
	// once at construction: the catalog is immutable after flavor.Build,
	// and a corpus names each of its few hundred ingredients hundreds of
	// thousands of times.
	ingTokens [][]string

	mu       sync.RWMutex
	postings map[string][]posting
	docLen   []int    // tokens per document slot
	terms    []string // sorted vocabulary, for fuzzy expansion

	// counts and oldCounts are ApplyBatch's per-document term counts,
	// scratch reused under idx.mu.
	counts, oldCounts map[string]int
}

func newIndex(store *recipedb.Store) *Index {
	catalog := store.Catalog()
	idx := &Index{
		store:     store,
		ingTokens: make([][]string, catalog.Len()),
		postings:  make(map[string][]posting),
		counts:    make(map[string]int),
		oldCounts: make(map[string]int),
	}
	for i := range idx.ingTokens {
		idx.ingTokens[i] = tokenize(catalog.Ingredient(flavor.ID(i)).Name)
	}
	return idx
}

// Build indexes every recipe in the store as a one-shot snapshot of its
// postings; searches still read the live count and regions from the
// store, so the snapshot's scores drift once the store changes.
// Document text is the recipe name plus all ingredient names; tokens
// are normalized and singularized the same way the aliasing pipeline
// normalizes phrases, so "Tomatoes" matches recipes using "tomato".
func Build(store *recipedb.Store) *Index {
	idx := newIndex(store)
	store.Read(func(v *recipedb.View) { idx.rebuildLocked(v) })
	return idx
}

// NewLive builds the index and subscribes it to the store's mutation
// feed in one atomic step: no mutation can land between the initial
// build and the first incremental application. Maintenance is
// synchronous with the mutation (inside the corpus write lock), which
// is what makes "acked upsert is searchable by the next request" a
// guarantee rather than a race.
func NewLive(store *recipedb.Store) *Index {
	idx := newIndex(store)
	store.SubscribeBatch(
		func(v *recipedb.View) { idx.rebuildLocked(v) },
		idx.ApplyBatch,
	)
	return idx
}

// rebuildLocked replaces the whole index state from a corpus view.
// Documents are addressed by recipe slot, so a corpus with tombstoned
// (deleted) slots keeps doc IDs aligned with recipe IDs; tombstones
// contribute no postings. Callers hold no idx lock contention yet
// (construction) or must not: it takes the write lock itself. The
// caller's View keeps the corpus locked while the span workers read it
// (see "The build" in the package comment for why their lists join into
// the single-pass index).
func (idx *Index) rebuildLocked(v *recipedb.View) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	slots := v.Slots()
	idx.docLen = make([]int, slots)

	workers := max(1, min(runtime.GOMAXPROCS(0), slots))
	parts := make([]map[string][]posting, workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			parts[w] = idx.indexSpan(v, slots*w/workers, slots*(w+1)/workers)
		}(w)
	}
	wg.Wait()

	// Join in worker order onto the first span's lists, dropping each
	// later span's copy as it goes so the collector need not wait for the
	// join to end.
	idx.postings = parts[0]
	for _, part := range parts[1:] {
		for term, list := range part {
			idx.postings[term] = append(idx.postings[term], list...)
			delete(part, term)
		}
	}
	idx.terms = make([]string, 0, len(idx.postings))
	for term := range idx.postings {
		idx.terms = append(idx.terms, term)
	}
	sort.Strings(idx.terms)
}

// indexSpan indexes the documents in slots [lo, hi): it fills their
// entries of docLen, which no other span touches, and returns
// their postings, each list doc-ascending.
func (idx *Index) indexSpan(v *recipedb.View, lo, hi int) map[string][]posting {
	postings := make(map[string][]posting)
	counts := make(map[string]int)
	for docID := lo; docID < hi; docID++ {
		rec := v.Recipe(docID)
		if rec.Deleted {
			continue
		}
		clear(counts)
		idx.docLen[docID] = idx.countTokens(rec, counts)
		for term, tf := range counts {
			postings[term] = append(postings[term], posting{doc: int32(docID), tf: int32(tf)})
		}
	}
	return postings
}

// countTokens adds the terms of a recipe's document text — its own
// name, tokenized here, plus its ingredients' names from the memo — to
// counts and returns the token total.
func (idx *Index) countTokens(rec *recipedb.Recipe, counts map[string]int) int {
	toks := tokenize(rec.Name)
	n := len(toks)
	for _, tok := range toks {
		counts[tok]++
	}
	for _, ing := range rec.Ingredients {
		toks := idx.ingTokens[ing]
		n += len(toks)
		for _, tok := range toks {
			counts[tok]++
		}
	}
	return n
}

// ApplyBatch folds one coalesced batch of corpus mutations into the
// index under a single lock acquisition. It is the store subscriber:
// called synchronously inside the mutation critical section, batches in
// version order and mutations in version order within each batch. A
// bare version bump (nil Old and New) changes nothing here.
func (idx *Index) ApplyBatch(ms []recipedb.Mutation) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	for _, m := range ms {
		switch {
		case m.Old != nil && m.New != nil:
			idx.replaceDocLocked(m.Old, m.New)
		case m.Old != nil:
			idx.removeDocLocked(m.Old)
		case m.New != nil:
			idx.addDocLocked(m.New)
		}
	}
}

// addDocLocked indexes one recipe, growing docLen if the mutation
// extended the corpus (intermediate gap slots stay empty, exactly as a
// fresh Build leaves tombstones).
func (idx *Index) addDocLocked(rec *recipedb.Recipe) {
	for len(idx.docLen) <= rec.ID {
		idx.docLen = append(idx.docLen, 0)
	}
	idx.counts = reuse(idx.counts)
	idx.docLen[rec.ID] = idx.countTokens(rec, idx.counts)
	for term, tf := range idx.counts {
		idx.insertPostingLocked(term, rec.ID, tf)
	}
}

// removeDocLocked unindexes one recipe by counting its document text
// again — the recipe copy in the mutation preserves exactly what was
// indexed.
func (idx *Index) removeDocLocked(rec *recipedb.Recipe) {
	idx.counts = reuse(idx.counts)
	idx.countTokens(rec, idx.counts)
	for term := range idx.counts {
		idx.removePostingLocked(term, rec.ID)
	}
	idx.docLen[rec.ID] = 0
}

// replaceDocLocked re-indexes a slot whose live recipe old was replaced
// by rec, diffing their term counts: a term in both keeps its posting
// and has its tf rewritten in place, and only the other terms are
// inserted or removed — so only they can enter or leave the vocabulary,
// and a long list the two share is never shifted.
func (idx *Index) replaceDocLocked(old, rec *recipedb.Recipe) {
	idx.oldCounts = reuse(idx.oldCounts)
	idx.countTokens(old, idx.oldCounts)
	idx.counts = reuse(idx.counts)
	idx.docLen[rec.ID] = idx.countTokens(rec, idx.counts)
	for term := range idx.oldCounts {
		if _, kept := idx.counts[term]; !kept {
			idx.removePostingLocked(term, rec.ID)
		}
	}
	for term, tf := range idx.counts {
		if oldTF, kept := idx.oldCounts[term]; !kept || tf != oldTF {
			idx.insertPostingLocked(term, rec.ID, tf)
		}
	}
}

// reuse returns m emptied for the next document's counts. Clearing a
// map costs its capacity, not its length, so a map an outsized document
// grew is dropped rather than kept to slow every later write.
func reuse(m map[string]int) map[string]int {
	if len(m) > 256 {
		return make(map[string]int)
	}
	clear(m)
	return m
}

// insertPostingLocked puts (doc, tf) on term's list: an entry already
// there for doc has its tf rewritten in place, anything else is
// inserted, and a term new to the index enters the vocabulary.
func (idx *Index) insertPostingLocked(term string, doc, tf int) {
	p := posting{doc: int32(doc), tf: int32(tf)}
	plist, existed := idx.postings[term]
	i, found := findPosting(plist, p.doc)
	if found {
		plist[i] = p
		return
	}
	idx.postings[term] = slices.Insert(plist, i, p)
	if !existed {
		idx.insertTermLocked(term)
	}
}

// removePostingLocked drops doc from term's list. A term whose list
// empties leaves the vocabulary, so fuzzy expansion never resurrects
// deleted-only terms and the vocabulary matches a fresh Build byte for
// byte.
func (idx *Index) removePostingLocked(term string, doc int) {
	plist := idx.postings[term]
	i, found := findPosting(plist, int32(doc))
	if !found {
		return
	}
	if len(plist) == 1 {
		delete(idx.postings, term)
		idx.removeTermLocked(term)
		return
	}
	idx.postings[term] = slices.Delete(plist, i, i+1)
}

// insertTermLocked adds a term to the sorted vocabulary slice.
func (idx *Index) insertTermLocked(term string) {
	i := sort.SearchStrings(idx.terms, term)
	idx.terms = append(idx.terms, "")
	copy(idx.terms[i+1:], idx.terms[i:])
	idx.terms[i] = term
}

// removeTermLocked drops a term from the sorted vocabulary slice.
func (idx *Index) removeTermLocked(term string) {
	i := sort.SearchStrings(idx.terms, term)
	if i < len(idx.terms) && idx.terms[i] == term {
		idx.terms = append(idx.terms[:i], idx.terms[i+1:]...)
	}
}

// findPosting returns where doc is, or would go, in a doc-ascending
// list, and whether it is there.
func findPosting(list []posting, doc int32) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if list[m].doc < doc {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(list) && list[lo].doc == doc
}

// tokenize normalizes free text into index terms.
func tokenize(text string) []string {
	toks := textproc.Tokenize(text)
	out := toks[:0]
	for _, tok := range toks {
		if len(tok) < 2 || textproc.IsQuantity(tok) {
			continue
		}
		out = append(out, textproc.Singularize(tok))
	}
	return out
}

// Vocabulary returns the number of distinct terms.
func (idx *Index) Vocabulary() int {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	return len(idx.postings)
}

// Hit is one ranked search result.
type Hit struct {
	// RecipeID indexes the store the index was built from.
	RecipeID int
	// Score is the accumulated TF-IDF relevance (higher is better).
	Score float64
	// Matched is how many distinct query terms the document matched.
	Matched int
}

// Options tunes a search.
type Options struct {
	// Mode combines terms with OR (ModeAny, default) or AND (ModeAll).
	Mode Mode
	// Limit caps the number of hits; <= 0 means 10.
	Limit int
	// Region restricts hits to one region when HasRegion is true;
	// otherwise the whole corpus is searched. (An explicit flag because
	// the zero Region value is a real region, not a wildcard.)
	Region    recipedb.Region
	HasRegion bool
	// Fuzzy expands query terms within one edit when the exact term is
	// absent from the vocabulary ("tomatoe" → "tomato").
	Fuzzy bool
}

// Search is SearchView inside one Store.Read of the index's corpus.
func (idx *Index) Search(query string, opts Options) []Hit {
	var hits []Hit
	idx.store.Read(func(v *recipedb.View) { hits = idx.SearchView(v, query, opts) })
	return hits
}

// SearchView tokenizes the query and returns ranked hits against v, a
// view of the corpus the index was built from; the caller holds the
// Read, so the hits and v.Version name one corpus state. Ties break by
// recipe ID for determinism.
func (idx *Index) SearchView(v *recipedb.View, query string, opts Options) []Hit {
	limit := opts.Limit
	if limit <= 0 {
		limit = 10
	}
	terms := tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	// Deduplicate query terms, keeping first occurrences in order.
	uniq := terms[:0]
	for _, term := range terms {
		if !slices.Contains(uniq, term) {
			uniq = append(uniq, term)
		}
	}
	terms = uniq

	idx.mu.RLock()
	defer idx.mu.RUnlock()

	// One cursor per matching term, in query-term order.
	cursors := make([]cursor, 0, len(terms))
	candidates := 0 // upper bound on the number of hits
	for _, term := range terms {
		plist := idx.postings[term]
		if len(plist) == 0 && opts.Fuzzy {
			plist = idx.fuzzyPostingsLocked(term)
		}
		if len(plist) == 0 {
			if opts.Mode == ModeAll {
				// No document can match every term: skip the merge and
				// the fuzzy expansion of any later term.
				return []Hit{}
			}
			continue
		}
		idf := math.Log(float64(v.Len()+1) / float64(len(plist)+1))
		cursors = append(cursors, cursor{list: plist, idf: idf})
		candidates += len(plist)
	}

	// top is a heap of the best min(limit, candidates) hits seen so far
	// with the worst of them at the root.
	top := make([]Hit, 0, min(limit, candidates))
	filter := opts.HasRegion && opts.Region != recipedb.World
	for {
		// The next document is the smallest one any cursor points at.
		doc := int32(-1)
		for i := range cursors {
			if c := &cursors[i]; c.pos < len(c.list) && (doc < 0 || c.list[c.pos].doc < doc) {
				doc = c.list[c.pos].doc
			}
		}
		if doc < 0 {
			break
		}
		// Sum its terms' contributions in query-term order — the order
		// the sums have always been taken in, so scores keep their bits.
		h := Hit{RecipeID: int(doc)}
		for i := range cursors {
			c := &cursors[i]
			if c.pos == len(c.list) || c.list[c.pos].doc != doc {
				continue
			}
			tf := float64(c.list[c.pos].tf) / float64(idx.docLen[doc])
			h.Score += tf * c.idf
			h.Matched++
			c.pos++
		}
		if opts.Mode == ModeAll && h.Matched < len(terms) {
			continue
		}
		if filter && v.Recipe(int(doc)).Region != opts.Region {
			continue
		}
		switch {
		case len(top) < cap(top):
			top = append(top, h)
			siftUp(top, len(top)-1)
		case ranksBefore(h, top[0]):
			top[0] = h
			siftDown(top, 0)
		}
	}
	// Heapsort in place: moving the worst remaining hit to the end each
	// round leaves the slice best-first.
	for n := len(top) - 1; n > 0; n-- {
		top[0], top[n] = top[n], top[0]
		siftDown(top[:n], 0)
	}
	return top
}

// cursor is the read position in one query term's posting list, and
// the term's inverse document frequency.
type cursor struct {
	list []posting
	pos  int
	idf  float64
}

// ranksBefore is the ranking: score descending, ties by recipe ID
// ascending. IDs are unique within a result and scores are never NaN,
// so it is a strict total order.
func ranksBefore(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.RecipeID < b.RecipeID
}

// siftUp and siftDown restore the heap property — no hit ranks after
// its parent, so the root ranks last — once h[i] has changed.
func siftUp(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ranksBefore(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []Hit, i int) {
	for {
		worst := i
		for child := 2*i + 1; child <= 2*i+2 && child < len(h); child++ {
			if ranksBefore(h[worst], h[child]) {
				worst = child
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// fuzzyPostingsLocked merges the posting lists of vocabulary terms
// within one edit of term; callers hold idx.mu. A shared first letter
// is required, which keeps the candidate scan cheap and avoids absurd
// matches.
func (idx *Index) fuzzyPostingsLocked(term string) []posting {
	if len(term) == 0 {
		return nil
	}
	first := term[:1]
	start := sort.SearchStrings(idx.terms, first)
	var merged []posting
	for i := start; i < len(idx.terms); i++ {
		cand := idx.terms[i]
		if !strings.HasPrefix(cand, first) {
			break
		}
		if len(cand)-len(term) > 1 || len(term)-len(cand) > 1 {
			continue
		}
		if textproc.WithinEditBudget(term, cand, 1) {
			merged = append(merged, idx.postings[cand]...)
		}
	}
	if len(merged) == 0 {
		return nil
	}
	// Re-sort and merge duplicate documents (a doc may match several
	// fuzzy variants).
	sort.Slice(merged, func(i, j int) bool { return merged[i].doc < merged[j].doc })
	out := merged[:0]
	for _, p := range merged {
		if n := len(out); n > 0 && out[n-1].doc == p.doc {
			out[n-1].tf += p.tf
			continue
		}
		out = append(out, p)
	}
	return out
}

// CanonicalDump serializes the complete index state deterministically:
// docLen in slot order, beside each slot's liveness and region as the
// corpus holds them (region 0 for a tombstone), vocabulary in
// sorted-terms order, posting lists exactly as stored (NOT re-sorted —
// so the dump also witnesses the doc-ascending invariant incremental
// maintenance must preserve). Two indexes over the same corpus state
// produce identical bytes; the equivalence tests diff a live index
// against a fresh Build with it.
func (idx *Index) CanonicalDump() []byte {
	var b strings.Builder
	idx.store.Read(func(v *recipedb.View) {
		idx.mu.RLock()
		defer idx.mu.RUnlock()
		fmt.Fprintf(&b, "version=%d nDocs=%d slots=%d terms=%d\n",
			v.Version, v.Len(), len(idx.docLen), len(idx.terms))
		for i := range idx.docLen {
			rec, region := v.Recipe(i), recipedb.Region(0)
			if !rec.Deleted {
				region = rec.Region
			}
			fmt.Fprintf(&b, "doc %d len=%d live=%t region=%d\n", i, idx.docLen[i], !rec.Deleted, int(region))
		}
		for _, term := range idx.terms {
			fmt.Fprintf(&b, "term %q:", term)
			for _, p := range idx.postings[term] {
				fmt.Fprintf(&b, " %d/%d", p.doc, p.tf)
			}
			b.WriteByte('\n')
		}
		// The map must agree with the sorted slice: any divergence is a
		// maintenance bug the diff should surface, so record both sizes.
		fmt.Fprintf(&b, "postings=%d\n", len(idx.postings))
	})
	return []byte(b.String())
}

// TermStats describes one vocabulary term for diagnostics.
type TermStats struct {
	Term string
	// Docs is the document frequency.
	Docs int
	// TotalTF is the summed term frequency.
	TotalTF int
}

// TopTerms returns the k most document-frequent terms — a quick look at
// what dominates the corpus vocabulary (typically the staple
// ingredients, mirroring Fig 3b's popularity ranking).
func (idx *Index) TopTerms(k int) []TermStats {
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	stats := make([]TermStats, 0, len(idx.postings))
	for term, plist := range idx.postings {
		total := 0
		for _, p := range plist {
			total += int(p.tf)
		}
		stats = append(stats, TermStats{Term: term, Docs: len(plist), TotalTF: total})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Docs != stats[j].Docs {
			return stats[i].Docs > stats[j].Docs
		}
		return stats[i].Term < stats[j].Term
	})
	if k < len(stats) {
		stats = stats[:k]
	}
	return stats
}
