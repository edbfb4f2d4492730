package search

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// referenceSearch is the search as it stood before the
// merge-and-bounded-heap kernel: one heap-allocated accumulator per
// candidate document in a map, every candidate copied out and fully
// sorted, then truncated. It takes liveness, region and the live count
// from the corpus view, never from the index, and it tests every
// candidate for liveness, which the kernel leaves to the postings. It is
// the definition of what a search returns; the kernel is held to it hit
// for hit, score bit for score bit.
func (idx *Index) referenceSearch(v *recipedb.View, query string, opts Options) []Hit {
	limit := opts.Limit
	if limit <= 0 {
		limit = 10
	}
	terms := tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	// Deduplicate query terms.
	seen := make(map[string]struct{}, len(terms))
	uniq := terms[:0]
	for _, term := range terms {
		if _, dup := seen[term]; dup {
			continue
		}
		seen[term] = struct{}{}
		uniq = append(uniq, term)
	}
	terms = uniq

	idx.mu.RLock()
	defer idx.mu.RUnlock()

	type accum struct {
		score   float64
		matched int
	}
	scores := make(map[int]*accum)
	for _, term := range terms {
		plist := idx.postings[term]
		if len(plist) == 0 && opts.Fuzzy {
			plist = idx.fuzzyPostingsLocked(term)
		}
		if len(plist) == 0 {
			continue
		}
		idf := math.Log(float64(v.Len()+1) / float64(len(plist)+1))
		for _, p := range plist {
			a := scores[int(p.doc)]
			if a == nil {
				a = &accum{}
				scores[int(p.doc)] = a
			}
			tf := float64(p.tf) / float64(idx.docLen[p.doc])
			a.score += tf * idf
			a.matched++
		}
	}

	hits := make([]Hit, 0, len(scores))
	for doc, a := range scores {
		if opts.Mode == ModeAll && a.matched < len(terms) {
			continue
		}
		rec := v.Recipe(doc)
		if rec.Deleted {
			continue
		}
		if opts.HasRegion && opts.Region != recipedb.World && rec.Region != opts.Region {
			continue
		}
		hits = append(hits, Hit{RecipeID: doc, Score: a.score, Matched: a.matched})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].RecipeID < hits[j].RecipeID
	})
	if len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// misspell puts a term one edit from the vocabulary, the way the
// repository benchmark's cold searches do.
func misspell(term string) string {
	if len(term) < 4 {
		return term + "x"
	}
	return term[:1] + term[2:]
}

// referenceQueries is the battery: every catalog name alone; every
// eighth in a pair, in a triple, and misspelt for fuzzy expansion; and
// queries with a term nothing matches, before and after a live one, so
// ModeAll sees a dead term both ways round.
func referenceQueries(catalog *flavor.Catalog) (exact, fuzzy []string) {
	names := catalog.Names()
	n := len(names)
	for i, a := range names {
		exact = append(exact, a)
		if i%8 != 0 {
			continue
		}
		b, c := names[(i*7+3)%n], names[(i*13+5)%n]
		exact = append(exact, a+" "+b, a+" "+b+" "+c, a+" qqzzyx", "qqzzyx "+a)
		fuzzy = append(fuzzy, misspell(a), misspell(a)+" "+b, a+" "+misspell(b)+" "+misspell(c),
			misspell(a)+" qqzzyx", "qqzzyx "+misspell(a))
	}
	return exact, fuzzy
}

// compareWithReference runs the battery × Mode × region filter through
// the reference for the full ranking, then holds the kernel to that
// ranking's prefix at every Limit — sort-and-truncate is what a bounded
// top-k has to equal. Both read one view of the store. It returns how
// many comparisons had hits.
func compareWithReference(t *testing.T, store *recipedb.Store, idx *Index, exact, fuzzy []string) int {
	t.Helper()
	nonEmpty := 0
	limits := []int{0, 1, 3, 100, 100000, math.MaxInt}
	check := func(v *recipedb.View, q string, opts Options) {
		opts.Limit = math.MaxInt
		ranking := idx.referenceSearch(v, q, opts)
		for _, limit := range limits {
			opts.Limit = limit
			if limit <= 0 {
				limit = 10
			}
			want := ranking[:min(limit, len(ranking))]
			got := idx.SearchView(v, q, opts)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Search(%q, %+v) diverged from the reference:\n got %v\nwant %v", q, opts, clip(got), clip(want))
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	store.Read(func(v *recipedb.View) {
		for qi, queries := range [][]string{exact, fuzzy} {
			for _, q := range queries {
				for _, mode := range []Mode{ModeAny, ModeAll} {
					opts := Options{Mode: mode, Fuzzy: qi == 1}
					check(v, q, opts)
					opts.Region, opts.HasRegion = recipedb.Italy, true
					check(v, q, opts)
				}
			}
		}
	})
	return nonEmpty
}

func clip(hits []Hit) []Hit {
	if len(hits) > 12 {
		return hits[:12]
	}
	return hits
}

// TestKernelMatchesReference holds the merge kernel to the reference on
// a fresh Build and then on a live index that a seeded schedule of
// inserts, replacements and deletes has left with tombstoned slots,
// shortened lists and emptied terms.
func TestKernelMatchesReference(t *testing.T) {
	env, err := experiments.NewEnv(experiments.Options{Scale: 0.3, NullRecipes: 2000, Seed: 20180416})
	if err != nil {
		t.Fatal(err)
	}
	store, catalog := env.Store, env.Catalog
	exact, fuzzy := referenceQueries(catalog)

	n := compareWithReference(t, store, Build(store), exact, fuzzy)
	t.Logf("fresh Build over %d recipes: %d non-empty comparisons", store.Len(), n)
	if n < 10000 {
		t.Fatalf("only %d non-empty comparisons: the battery lost its teeth", n)
	}

	live := NewLive(store)
	rnd := rand.New(rand.NewSource(21))
	randIngredients := func() []flavor.ID {
		ids := make([]flavor.ID, 0, 6)
		for _, i := range rnd.Perm(catalog.Len())[:2+rnd.Intn(5)] {
			ids = append(ids, flavor.ID(i))
		}
		return ids
	}
	vocabBefore := live.Vocabulary()
	var added []int
	for step := 0; step < 1500; step++ {
		switch rnd.Intn(3) {
		case 0: // delete: a tombstone, shorter lists, sometimes an emptied term
			if _, err := store.Remove(rnd.Intn(store.Slots())); err != nil {
				continue // already a tombstone
			}
		case 1: // replace (or revive) in place
			if _, _, _, err := store.Upsert(rnd.Intn(store.Slots()), fmt.Sprintf("Churned Plate %d", step),
				recipedb.Italy, recipedb.Epicurious, randIngredients()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 2: // insert with a name token no other recipe has
			id, _, _, err := store.Upsert(-1, fmt.Sprintf("Onceonly%d Stew", step),
				recipedb.Japan, recipedb.Epicurious, randIngredients())
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			added = append(added, id)
		}
	}
	// Deleting the inserted recipes empties their once-only terms.
	for _, id := range added[:len(added)/2] {
		store.Remove(id) //nolint:errcheck // may already be gone
	}
	if store.Slots() == store.Len() || live.Vocabulary() == vocabBefore {
		t.Fatalf("schedule left no tombstones (%d slots, %d live) or no vocabulary change", store.Slots(), store.Len())
	}
	// The reference first: it reads liveness from the corpus, so it
	// catches a stale posting on its own, before the dump comparison.
	exact = append(exact, "churned", "churned plate", "stew")
	fuzzy = append(fuzzy, "churnd", "churnd plat", "stw")
	n = compareWithReference(t, store, live, exact, fuzzy)
	t.Logf("live index after churn (%d slots, %d live): %d non-empty comparisons", store.Slots(), store.Len(), n)
	requireEquivalent(t, store, live)
}

// TestSearchAllocations pins the kernel's allocation shape: a search
// allocates for its query and its result, never per posting.
func TestSearchAllocations(t *testing.T) {
	env, err := experiments.NewEnv(experiments.Options{Scale: 0.3, NullRecipes: 2000, Seed: 20180416})
	if err != nil {
		t.Fatal(err)
	}
	idx := Build(env.Store)
	// A long and a short list among the single-word terms.
	var long, short string
	for _, ts := range idx.TopTerms(idx.Vocabulary()) {
		if strings.ContainsAny(ts.Term, "' ") {
			continue
		}
		if long == "" {
			long = ts.Term
		}
		if ts.Docs >= 10 {
			short = ts.Term
		}
	}
	nLong, nShort := len(idx.postings[long]), len(idx.postings[short])
	if nLong < 3000 || nShort > 20 {
		t.Fatalf("terms %q (%d postings) and %q (%d) do not span the list lengths", long, nLong, short, nShort)
	}
	// The server's shape: SearchView inside a Read the caller holds.
	allocs := func(q string, opts Options) (n float64) {
		env.Store.Read(func(v *recipedb.View) {
			n = testing.AllocsPerRun(50, func() { idx.SearchView(v, q, opts) })
		})
		return n
	}
	aLong, aShort := allocs(long, Options{Limit: 10}), allocs(short, Options{Limit: 10})
	t.Logf("%q: %d postings, %.0f allocs; %q: %d postings, %.0f allocs", long, nLong, aLong, short, nShort, aShort)
	if aLong > 10 || aLong != aShort {
		t.Errorf("one-term search allocates %.0f times over %d postings and %.0f over %d; want equal and <= 10",
			aLong, nLong, aShort, nShort)
	}
	// An unbounded limit sizes the result by the candidates, not the limit.
	hits := idx.Search(long, Options{Limit: math.MaxInt})
	if len(hits) != nLong || cap(hits) > nLong {
		t.Errorf("Limit MaxInt over %d candidates: len %d cap %d", nLong, len(hits), cap(hits))
	}
	if a := allocs(long, Options{Limit: math.MaxInt}); a != aLong {
		t.Errorf("Limit MaxInt allocates %.0f times, Limit 10 %.0f", a, aLong)
	}
}

// TestCanonicalDumpDigest pins the index bytes of the TestOptions corpus
// to the digest recorded at e7c18a3, before ingredient names were
// tokenized once instead of per recipe: the memo cannot move a posting.
func TestCanonicalDumpDigest(t *testing.T) {
	const want = "e1bb75fedc5249611c153cd127d679dbb4f20184fad96da4ebedc2a6fb0ccabe"
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(Build(env.Store).CanonicalDump())); got != want {
		t.Fatalf("CanonicalDump digest %s, want %s", got, want)
	}
}
