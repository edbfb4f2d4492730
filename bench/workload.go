package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// corpusSeed and corpusScale fix the corpus every workload runs on:
// the paper's 45 772 recipes. The benchmark's own --seed only drives
// the request sequences.
const (
	corpusSeed    = 20180416
	corpusScale   = 1.0
	corpusRecipes = 45772
)

// opClass groups ops that take the same path through the server, so
// latencies and layer budgets are kept per class.
type opClass uint8

const (
	classQuery opClass = iota
	classRecipeGet
	classSearch
	classPairings
	classRecipeList
	classRegion
	classUpsert
	classDelete
	classBatch
	classPaperRegion
	classPaperDescriptive
	numClasses
)

var classNames = [numClasses]string{
	"query", "recipe_get", "search", "pairings", "recipe_list", "region",
	"upsert", "delete", "batch", "paper_region", "paper_descriptive",
}

func (c opClass) String() string { return classNames[c] }

// isWrite reports whether ops of the class mutate the corpus.
func (c opClass) isWrite() bool { return c == classUpsert || c == classDelete || c == classBatch }

// opKind is what the traffic mix is written in: one class can be
// requested in a cache-friendly and a cache-hostile way.
type opKind uint8

const (
	kindHotQuery    opKind = iota // one of hotStatements fixed statements
	kindUniqueQuery               // a statement never sent before in this run
	kindHotRecipe                 // one of hotRecipes fixed ids
	kindAnyRecipe                 // any id of the base corpus
	kindHotSearch                 // one term out of hotTerms fixed terms
	kindAnySearch                 // one term out of the whole vocabulary
	kindColdSearch                // two terms, or one misspelt term with fuzzy=1
	kindHotPairings
	kindRecipeList
	kindRegion
	kindUpsert
	kindDelete
	kindBatch
	numKinds
)

var kindNames = [numKinds]string{
	"hot_query", "unique_query", "hot_recipe", "any_recipe", "hot_search",
	"any_search", "cold_search", "hot_pairings", "recipe_list", "region",
	"upsert", "delete", "batch",
}

// Working-set sizes of the cache-friendly kinds. hotStatements must
// stay below query.DefaultPlanCacheCapacity and the statements'
// results below the result-cache budget, or serve_read_hot stops
// measuring a warm cache; workload_test.go checks both.
const (
	hotStatements = 64
	hotRecipes    = 256
	hotTerms      = 64
	hotPairings   = 64
)

type mixEntry struct {
	kind opKind
	pct  int
}

// workload is one traffic mix (or, for paper_figs, the paper's own
// pipeline). The whys are repeated in BENCHMARK.json and README.md.
type workload struct {
	name string
	// clients is the closed loop's width. The serving mixes use two.
	// paper_figs runs one op at a time, as cmd/pairing does: an op
	// already fans out where the library chooses to, and on a machine
	// whose two CPUs are hyperthreads of one core a second compute-bound
	// client adds a tenth of throughput and triples the run-to-run spread.
	clients   int
	mix       []mixEntry // shares in percent, summing to 100
	batchSize int
	readOnly  bool
	// tail is the percentile reported as tail_ms: p99 for the serving
	// mixes (tens of thousands of samples a run), p75 for paper_figs,
	// whose run holds 50 to 70 quarter-second ops: p90 would have fewer
	// than ten samples beyond it.
	tail float64
}

var workloads = []workload{
	{name: "paper_figs", clients: 1, tail: 75},
	{name: "serve_read_hot", clients: 2, readOnly: true, tail: 99, mix: []mixEntry{
		{kindHotQuery, 40}, {kindHotRecipe, 30}, {kindHotSearch, 20}, {kindHotPairings, 10}}},
	{name: "serve_read_cold", clients: 2, readOnly: true, tail: 99, mix: []mixEntry{
		{kindUniqueQuery, 50}, {kindColdSearch, 25}, {kindRecipeList, 15}, {kindRegion, 10}}},
	{name: "serve_write_durable", clients: 2, batchSize: 16, tail: 99, mix: []mixEntry{
		{kindUpsert, 70}, {kindDelete, 15}, {kindBatch, 15}}},
	{name: "serve_mixed", clients: 2, batchSize: 8, tail: 99, mix: []mixEntry{
		{kindAnyRecipe, 45}, {kindAnySearch, 25}, {kindHotQuery, 10}, {kindUniqueQuery, 10},
		{kindUpsert, 8}, {kindBatch, 2}}},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// vocab is everything request parameters are drawn from. It comes from
// the ingredient catalog and the region table alone, so generating a
// sequence needs neither the corpus nor a running server.
type vocab struct {
	names    []string // ingredient names usable inside a CQL literal
	terms    []string // single-word names: full-text search terms
	profiled []string // names the pairings endpoint accepts
	regions  []recipedb.Region
	hotStmts []string
	hotIDs   []int
}

func newVocab(catalog *flavor.Catalog) *vocab {
	v := &vocab{regions: recipedb.MajorRegions()}
	for i := 0; i < catalog.Len(); i++ {
		ing := catalog.Ingredient(flavor.ID(i))
		if strings.ContainsAny(ing.Name, `'"\`) {
			continue
		}
		v.names = append(v.names, ing.Name)
		if !strings.Contains(ing.Name, " ") {
			v.terms = append(v.terms, ing.Name)
		}
		if ing.HasProfile {
			v.profiled = append(v.profiled, ing.Name)
		}
	}
	for i := 0; i < hotStatements; i++ {
		region := v.regions[(i/4)%len(v.regions)].Code()
		a, b := v.names[(i*7)%len(v.names)], v.names[(i*13+5)%len(v.names)]
		var s string
		switch i % 4 {
		case 0:
			s = fmt.Sprintf("SELECT region, count(*) FROM recipes WHERE has('%s') GROUP BY region", a)
		case 1:
			s = fmt.Sprintf("SELECT name, size FROM recipes WHERE region = '%s' AND has('%s') ORDER BY size DESC LIMIT 10", region, a)
		case 2:
			s = fmt.Sprintf("SELECT count(*), avg(size) FROM recipes WHERE region = '%s'", region)
		case 3:
			s = fmt.Sprintf("SELECT id, name FROM recipes WHERE has('%s') AND NOT has('%s') LIMIT 20", a, b)
		}
		v.hotStmts = append(v.hotStmts, s)
	}
	for i := 0; i < hotRecipes; i++ {
		v.hotIDs = append(v.hotIDs, i*(corpusRecipes/hotRecipes))
	}
	return v
}

// recipeSpec is the content of one recipe as the benchmark sent it and
// expects to read it back.
type recipeSpec struct {
	Name        string   `json:"name"`
	Region      string   `json:"region"`
	Source      string   `json:"source"`
	Ingredients []string `json:"ingredients"`
}

// jsonFields renders the spec's fields without the surrounding braces,
// so a runtime-known id can be put in front.
func (r *recipeSpec) jsonFields() string {
	var b strings.Builder
	b.WriteString(`"name":`)
	b.WriteString(strconv.Quote(r.Name))
	b.WriteString(`,"region":"`)
	b.WriteString(r.Region)
	b.WriteString(`","source":"`)
	b.WriteString(r.Source)
	b.WriteString(`","ingredients":[`)
	for i, ing := range r.Ingredients {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(ing))
	}
	b.WriteString("]")
	return b.String()
}

// writeItem is one recipe of an upsert or a batch. own is the index in
// the sending client's list of ids it created, or -1 for a new recipe:
// ids are assigned by the server, so a sequence can only name them by
// position.
type writeItem struct {
	own  int
	spec recipeSpec
}

// op is one generated request. Read ops are complete; write ops carry
// the items whose ids the client fills in when it sends them.
type op struct {
	kind   opKind
	class  opClass
	method string
	path   string
	body   string

	// Parameters the traced run needs to call the layer directly.
	stmt   string
	id     int
	terms  string
	fuzzy  bool
	region recipedb.Region

	items []writeItem // upsert: 1, batch: batchSize
	own   int         // delete: index of the victim in the own list
}

// canonical is the text the sequence digest is taken over.
func (o *op) canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s %s", kindNames[o.kind], o.method, o.path, o.body)
	for _, it := range o.items {
		fmt.Fprintf(&b, " [%d %s]", it.own, it.spec.jsonFields())
	}
	if o.kind == kindDelete {
		fmt.Fprintf(&b, " own=%d", o.own)
	}
	return b.String()
}

// Unique statements are numbered; number i maps to one point of a
// parameter space through i*stride+offset modulo the space's size,
// which visits every point once before repeating when stride and size
// are coprime. The sizes below are far above what 60 s of traffic can
// consume.
const (
	sizeBounds     = 12 // size >= k for k in 2..13
	uniqueGroupPer = 5  // every 5th unique statement is the GROUP BY form
)

// generator yields one client's op sequence. It is a pure function of
// (workload, seed, client): the only state it keeps besides the RNG is
// how many recipes the client owns if every write so far succeeded.
type generator struct {
	w       *workload
	v       *vocab
	rnd     *rand.Rand
	client  int
	clients int
	own     int // modelled length of the client's own-id list
	scanN   int // unique scan statements issued
	groupN  int // unique GROUP BY statements issued
	uniqueN int
	writeN  int
	offset  [2]int
	stride  [2]int
}

func newGenerator(w *workload, v *vocab, seed int64, client, clients int) *generator {
	g := &generator{
		w: w, v: v, client: client, clients: clients,
		rnd: rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 1)),
	}
	// Offsets and strides are shared by all clients of a run (they come
	// from the seed alone) so that their statement numbers never collide.
	shared := rand.New(rand.NewSource(seed*1000003 + 104729))
	for i, size := range []int{g.scanSpace(), g.groupSpace()} {
		g.offset[i] = shared.Intn(size)
		for {
			g.stride[i] = 1 + shared.Intn(size-1)
			if gcd(g.stride[i], size) == 1 {
				break
			}
		}
	}
	return g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *generator) scanSpace() int  { return len(g.v.regions) * len(g.v.names) * sizeBounds }
func (g *generator) groupSpace() int { return len(g.v.names) * (len(g.v.names) - 1) }

func (g *generator) pickKind() opKind {
	r := g.rnd.Intn(100)
	for _, m := range g.w.mix {
		if r < m.pct {
			return m.kind
		}
		r -= m.pct
	}
	panic("bench: mix shares do not sum to 100")
}

func (g *generator) next() op {
	kind := g.pickKind()
	switch kind {
	case kindHotQuery:
		return queryOp(kind, g.v.hotStmts[g.rnd.Intn(len(g.v.hotStmts))])
	case kindUniqueQuery:
		return queryOp(kind, g.uniqueStatement())
	case kindHotRecipe:
		return recipeOp(kind, g.v.hotIDs[g.rnd.Intn(len(g.v.hotIDs))])
	case kindAnyRecipe:
		return recipeOp(kind, g.rnd.Intn(corpusRecipes))
	case kindHotSearch:
		return searchOp(kind, g.v.terms[g.rnd.Intn(hotTerms)], false)
	case kindAnySearch:
		return searchOp(kind, g.v.terms[g.rnd.Intn(len(g.v.terms))], false)
	case kindColdSearch:
		a := g.v.terms[g.rnd.Intn(len(g.v.terms))]
		if g.rnd.Intn(2) == 0 {
			b := g.v.terms[g.rnd.Intn(len(g.v.terms))]
			return searchOp(kind, a+" "+b, false)
		}
		return searchOp(kind, misspell(a), true)
	case kindHotPairings:
		name := g.v.profiled[g.rnd.Intn(hotPairings)]
		return op{kind: kind, class: classPairings, method: "GET",
			path: "/api/ingredients/" + url.PathEscape(name) + "/pairings"}
	case kindRecipeList:
		region := g.v.regions[g.rnd.Intn(len(g.v.regions))]
		offset := g.rnd.Intn(region.PaperRecipeCount() - 20)
		return op{kind: kind, class: classRecipeList, method: "GET", region: region,
			path: fmt.Sprintf("/api/recipes?region=%s&limit=20&offset=%d", region.Code(), offset)}
	case kindRegion:
		region := g.v.regions[g.rnd.Intn(len(g.v.regions))]
		return op{kind: kind, class: classRegion, method: "GET", region: region,
			path: "/api/regions/" + region.Code()}
	case kindUpsert:
		return g.upsert()
	case kindDelete:
		if g.own == 0 {
			return g.upsert() // nothing to delete yet
		}
		k := g.rnd.Intn(g.own)
		g.own--
		return op{kind: kind, class: classDelete, method: "DELETE", own: k}
	case kindBatch:
		return g.batch()
	}
	panic("bench: unknown op kind")
}

func queryOp(kind opKind, stmt string) op {
	return op{kind: kind, class: classQuery, method: "POST", path: "/api/query",
		body: `{"q":` + strconv.Quote(stmt) + `}`, stmt: stmt}
}

func recipeOp(kind opKind, id int) op {
	return op{kind: kind, class: classRecipeGet, method: "GET", id: id,
		path: "/api/recipes/" + strconv.Itoa(id)}
}

func searchOp(kind opKind, terms string, fuzzy bool) op {
	path := "/api/search?limit=10&q=" + url.QueryEscape(terms)
	if fuzzy {
		path += "&fuzzy=1"
	}
	return op{kind: kind, class: classSearch, method: "GET", path: path, terms: terms, fuzzy: fuzzy}
}

// misspell drops the second letter, leaving a term one edit away from
// the vocabulary so that fuzzy expansion has work to do.
func misspell(term string) string {
	if len(term) < 4 {
		return term + "x"
	}
	return term[:1] + term[2:]
}

// uniqueStatement returns a statement no client of this run has sent
// before, so neither the plan cache nor the result cache can hold it.
func (g *generator) uniqueStatement() string {
	g.uniqueN++
	if g.uniqueN%uniqueGroupPer == 0 {
		i := g.groupN*g.clients + g.client
		g.groupN++
		p := (g.offset[1] + i*g.stride[1]) % g.groupSpace()
		n := len(g.v.names)
		a, b := p/(n-1), p%(n-1)
		if b >= a {
			b++ // skip a itself: has(a) AND NOT has(a) is empty
		}
		return fmt.Sprintf("SELECT region, count(*) FROM recipes WHERE has('%s') AND NOT has('%s') GROUP BY region",
			g.v.names[a], g.v.names[b])
	}
	i := g.scanN*g.clients + g.client
	g.scanN++
	p := (g.offset[0] + i*g.stride[0]) % g.scanSpace()
	k := 2 + p%sizeBounds
	p /= sizeBounds
	name := g.v.names[p%len(g.v.names)]
	region := g.v.regions[p/len(g.v.names)]
	return fmt.Sprintf("SELECT id, name, size FROM recipes WHERE region = '%s' AND has('%s') AND size >= %d LIMIT 20",
		region.Code(), name, k)
}

func (g *generator) recipe() recipeSpec {
	n := 4 + g.rnd.Intn(7)
	picked := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for len(picked) < n {
		i := g.rnd.Intn(len(g.v.names))
		if !seen[i] {
			seen[i] = true
			picked = append(picked, g.v.names[i])
		}
	}
	g.writeN++
	return recipeSpec{
		Name:        fmt.Sprintf("bench c%d n%d %s %s", g.client, g.writeN, picked[0], picked[1]),
		Region:      g.v.regions[g.rnd.Intn(len(g.v.regions))].Code(),
		Source:      recipedb.Source(g.rnd.Intn(recipedb.NumSources)).String(),
		Ingredients: picked,
	}
}

// upsert is half inserts, half replacements of a recipe this client
// created earlier (clients never touch each other's recipes, so the
// final content of every id is known without a global order).
func (g *generator) upsert() op {
	it := writeItem{own: -1}
	if g.own > 0 && g.rnd.Intn(2) == 0 {
		it.own = g.rnd.Intn(g.own)
	} else {
		g.own++
	}
	it.spec = g.recipe()
	return op{kind: kindUpsert, class: classUpsert, method: "POST", path: "/api/recipes", items: []writeItem{it}}
}

// batch replaces batchSize distinct own recipes in one request once the
// client owns that many, and inserts new ones until then. Replacing
// keeps the corpus near its starting size for the whole run; a stream
// of inserts would triple it and the run would not be stationary.
func (g *generator) batch() op {
	n := g.w.batchSize
	o := op{kind: kindBatch, class: classBatch, method: "POST", path: "/api/recipes/batch"}
	start := -1
	if g.own >= n {
		start = g.rnd.Intn(g.own)
	}
	for j := 0; j < n; j++ {
		it := writeItem{own: -1}
		if start >= 0 {
			it.own = (start + j) % g.own
		}
		it.spec = g.recipe()
		o.items = append(o.items, it)
	}
	if start < 0 {
		g.own += n
	}
	return o
}

// sequenceDigest hashes the first n ops of every client: the identity
// of a run's input.
func sequenceDigest(w *workload, v *vocab, seed int64, clients, n int) string {
	h := sha256.New()
	for c := 0; c < clients; c++ {
		g := newGenerator(w, v, seed, c, clients)
		for i := 0; i < n; i++ {
			o := g.next()
			fmt.Fprintf(h, "%d %s\n", c, o.canonical())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
