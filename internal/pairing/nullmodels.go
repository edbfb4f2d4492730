package pairing

import (
	"fmt"
	"math"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

// Model selects one of the paper's four randomized-cuisine controls
// (§IV.B). Every model preserves the cuisine's exact ingredient set and
// its recipe-size distribution.
type Model int

const (
	// RandomModel chooses ingredients uniformly from the cuisine's
	// ingredient set.
	RandomModel Model = iota
	// FrequencyModel preserves the empirical frequency of use of
	// ingredients.
	FrequencyModel
	// CategoryModel preserves each template recipe's category
	// composition, choosing uniformly within each category.
	CategoryModel
	// FrequencyCategoryModel preserves category composition and draws
	// within each category proportionally to ingredient frequency.
	FrequencyCategoryModel
	numModels
)

// NumModels is the number of null models (4).
const NumModels = int(numModels)

var modelNames = [...]string{
	"Random", "Frequency", "Category", "Frequency+Category",
}

// String returns the model's display name.
func (m Model) String() string {
	if m < 0 || m >= numModels {
		return fmt.Sprintf("Model(%d)", int(m))
	}
	return modelNames[m]
}

// AllModels returns the four models in declaration order.
func AllModels() []Model {
	out := make([]Model, NumModels)
	for i := range out {
		out[i] = Model(i)
	}
	return out
}

// DefaultNullRecipes is the paper's control size: "100,000 recipes were
// generated for the random control and models."
const DefaultNullRecipes = 100000

// NullPool is everything the four controls of one cuisine share: the
// pool-local numbering of its ingredients, their dense pair table and
// the flattened templates. Construction renumbers the cuisine's
// ingredients 0..L-1 and copies their pairwise shared-compound counts
// into a symmetric L×L table, so a draw and its score touch only arrays
// — no map, no allocation, no ordering branch (README.md, "Null-model
// sampling kernel", has the invariants and the variate-consumption
// contract).
//
// A pool is immutable once NewNullPool returns and safe for concurrent
// use: any number of samplers, each on its own goroutine, read it and
// nothing writes it. Everything a draw writes lives in the NullSampler.
type NullPool struct {
	region recipedb.Region

	// ids[l] is the ingredient with local index l. ids[:npool] is the
	// cuisine's pool in UniqueIngredients order; an ingredient that only
	// a template names (the corpus changed after the cuisine snapshot)
	// follows, where the category models can keep it but never draw it.
	ids   []flavor.ID
	npool int
	// weight[l] is the cuisine's use count of pool member l, as the
	// frequency models' alias tables take it.
	weight []float64
	// profiled[l] is 1 when ids[l] has a flavor profile; category[l] is
	// its flavor.Category; catPool[cat] lists the pool members of cat in
	// pool order.
	profiled []uint8
	category []uint8
	catPool  [][]int32
	// shared[x*len(ids)+y] is |F(ids[x]) ∩ F(ids[y])|; the diagonal and
	// the rows and columns of profile-less ingredients are zero.
	shared []uint16

	// Template t is tmpl[tmplOff[t]:tmplOff[t+1]]: the cuisine recipes'
	// ingredient lists, snapshot at construction (one store lock, not one
	// per draw). They provide sizes (all models) and category
	// compositions (category models). largest is the longest one's length.
	tmpl    []int32
	tmplOff []int32
	largest int
}

// NullSampler draws randomized recipes for one cuisine under one model:
// a random stream, the model's alias tables and the scratch of the draw
// in progress, over a NullPool it only reads. A sampler is not safe for
// concurrent use (it owns an rng.Source); build one per goroutine, from
// one shared pool when they sample the same cuisine.
type NullSampler struct {
	pool  *NullPool
	model Model
	src   *rng.Source

	// frequency-weighted sampler over the pool (FrequencyModel)
	freq *rng.Weighted
	// per-category frequency samplers over catPool for
	// FrequencyCategoryModel (nil entries otherwise)
	catFreq []*rng.Weighted

	// loc is the current draw. stamp[l] == gen marks l as a member of
	// it, so bumping gen empties the set.
	loc   []int32
	stamp []uint32
	gen   uint32
	// perm is the identity permutation of the pool between draws; undo
	// logs a partial Fisher–Yates' swap targets so they can be reverted.
	perm []int32
	undo []int32
	buf  []flavor.ID
}

// Local category tables hold a flavor.Category in a byte; this fails to
// compile if the category set ever outgrows one.
const _ = uint8(flavor.NumCategories - 1)

// NewNullSampler builds a sampler for the cuisine under the model, over
// a pool of its own. It returns an error for degenerate cuisines (no
// recipes or fewer than two ingredients), which cannot support any
// control.
func NewNullSampler(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model, src *rng.Source) (*NullSampler, error) {
	p, err := NewNullPool(a, store, c)
	if err != nil {
		return nil, err
	}
	return p.Sampler(m, src)
}

// NewNullPool builds the cuisine's shared sampling state. It returns an
// error for degenerate cuisines (no recipes or fewer than two
// ingredients), which cannot support any control.
func NewNullPool(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine) (*NullPool, error) {
	if len(c.RecipeIDs) == 0 {
		return nil, fmt.Errorf("pairing: cuisine %s has no recipes", c.Region.Code())
	}
	if len(c.UniqueIngredients) < 2 {
		return nil, fmt.Errorf("pairing: cuisine %s has %d unique ingredients, need >= 2",
			c.Region.Code(), len(c.UniqueIngredients))
	}
	p := &NullPool{region: c.Region, npool: len(c.UniqueIngredients)}
	p.localize(a, c.UniqueIngredients, store.IngredientLists(c.RecipeIDs))
	if err := p.fillShared(a); err != nil {
		return nil, fmt.Errorf("pairing: cuisine %s: %w", c.Region.Code(), err)
	}
	p.weight = make([]float64, p.npool)
	p.catPool = make([][]int32, flavor.NumCategories)
	for l, id := range c.UniqueIngredients {
		p.weight[l] = float64(c.Uses(id))
		cat := p.category[l]
		p.catPool[cat] = append(p.catPool[cat], int32(l))
	}
	return p, nil
}

// Sampler returns a sampler over the pool under model m, drawing from
// src. Samplers of one pool are independent: each owns its stream and
// its scratch, so they may run concurrently. A goroutine that will draw
// beside others should split its stream and call Sampler itself, so that
// what it writes on every draw is not allocated next to theirs
// (README.md, "Who allocates").
func (p *NullPool) Sampler(m Model, src *rng.Source) (*NullSampler, error) {
	s := &NullSampler{
		pool: p, model: m, src: src,
		stamp: make([]uint32, len(p.ids)),
		loc:   make([]int32, 0, p.largest),
		buf:   make([]flavor.ID, 0, p.largest),
		perm:  make([]int32, p.npool),
	}
	for l := range s.perm {
		s.perm[l] = int32(l)
	}
	// Weights follow the members' order, so the alias tables — and with
	// them the variates each Sample consumes — are those of a sampler
	// over the ingredient ids themselves.
	switch m {
	case RandomModel:
		s.undo = make([]int32, 0, p.largest)
	case FrequencyModel:
		w, err := rng.NewWeighted(p.weight)
		if err != nil {
			return nil, fmt.Errorf("pairing: frequency weights for %s: %w", p.region.Code(), err)
		}
		s.freq = w
	case CategoryModel, FrequencyCategoryModel:
		s.catFreq = make([]*rng.Weighted, flavor.NumCategories)
		if m == FrequencyCategoryModel {
			for cat, members := range p.catPool {
				if len(members) == 0 {
					continue
				}
				weights := make([]float64, len(members))
				for i, l := range members {
					weights[i] = p.weight[l]
				}
				w, err := rng.NewWeighted(weights)
				if err != nil {
					return nil, fmt.Errorf("pairing: category %d weights for %s: %w",
						cat, p.region.Code(), err)
				}
				s.catFreq[cat] = w
			}
		}
	default:
		return nil, fmt.Errorf("pairing: invalid model %d", int(m))
	}
	return s, nil
}

// localize assigns local indices — the pool first, in order, then any
// ingredient only a template names — and rewrites the templates, the
// profile flags and the categories in them.
func (p *NullPool) localize(a *Analyzer, pool []flavor.ID, templates [][]flavor.ID) {
	localOf := make([]int32, a.n)
	for i := range localOf {
		localOf[i] = -1
	}
	p.ids = append(make([]flavor.ID, 0, len(pool)), pool...)
	for l, id := range pool {
		localOf[id] = int32(l)
	}
	slots := 0
	for _, t := range templates {
		slots += len(t)
		if len(t) > p.largest {
			p.largest = len(t)
		}
	}
	p.tmpl = make([]int32, 0, slots)
	p.tmplOff = make([]int32, 1, len(templates)+1)
	for _, t := range templates {
		for _, id := range t {
			if localOf[id] < 0 {
				localOf[id] = int32(len(p.ids))
				p.ids = append(p.ids, id)
			}
			p.tmpl = append(p.tmpl, localOf[id])
		}
		p.tmplOff = append(p.tmplOff, int32(len(p.tmpl)))
	}
	p.profiled = make([]uint8, len(p.ids))
	p.category = make([]uint8, len(p.ids))
	for l, id := range p.ids {
		if a.hasProfile[id] {
			p.profiled[l] = 1
		}
		p.category[l] = uint8(a.catalog.Ingredient(id).Category)
	}
}

// fillShared copies the local ingredients' pair counts out of the
// analyzer's triangle. A count is at most the smaller profile's size,
// itself at most the catalog's molecule count, so 16 bits hold every
// catalog this library builds; one that does not fit is refused rather
// than truncated.
func (p *NullPool) fillShared(a *Analyzer) error {
	n := len(p.ids)
	p.shared = make([]uint16, n*n)
	for x := 0; x < n; x++ {
		if p.profiled[x] == 0 {
			continue
		}
		for y := x + 1; y < n; y++ {
			if p.profiled[y] == 0 {
				continue
			}
			v := a.sharedSym(int(p.ids[x]), int(p.ids[y]))
			if v > math.MaxUint16 {
				return fmt.Errorf("ingredients %d and %d share %d flavor compounds, more than the null sampler's 16-bit pair table holds (%d)",
					p.ids[x], p.ids[y], v, math.MaxUint16)
			}
			p.shared[x*n+y] = uint16(v)
			p.shared[y*n+x] = uint16(v)
		}
	}
	return nil
}

// Model returns the sampler's model.
func (s *NullSampler) Model() Model { return s.model }

// Draw generates one randomized recipe (a set of distinct ingredient
// IDs). The returned slice is reused across calls; callers must not
// retain it.
func (s *NullSampler) Draw() []flavor.ID {
	s.draw()
	ids := s.pool.ids
	s.buf = s.buf[:0]
	for _, l := range s.loc {
		s.buf = append(s.buf, ids[l])
	}
	return s.buf
}

// draw leaves one randomized recipe in s.loc. It consumes src exactly
// as the sampler always has: the template index first, then each
// model's variates in slot order.
func (s *NullSampler) draw() {
	p := s.pool
	t := s.src.Intn(len(p.tmplOff) - 1)
	tmpl := p.tmpl[p.tmplOff[t]:p.tmplOff[t+1]]
	size := len(tmpl)
	s.loc = s.loc[:0]
	s.gen++
	if s.gen == 0 {
		// The generation counter wrapped: stale stamps could collide
		// with it, so start over.
		clear(s.stamp)
		s.gen = 1
	}
	switch s.model {
	case RandomModel:
		if size >= p.npool {
			// Degenerate: use the whole pool.
			s.loc = append(s.loc, s.perm...)
			return
		}
		s.sampleUniform(size)
	case FrequencyModel:
		if size >= p.npool {
			s.loc = append(s.loc, s.perm...)
			return
		}
		for len(s.loc) < size {
			l := int32(s.freq.Sample(s.src))
			if s.stamp[l] == s.gen {
				continue
			}
			s.stamp[l] = s.gen
			s.loc = append(s.loc, l)
		}
	case CategoryModel, FrequencyCategoryModel:
		// Preserve the template's category multiset; draw within each
		// slot's category.
		for _, orig := range tmpl {
			l := s.drawFromCategory(p.category[orig], orig)
			s.stamp[l] = s.gen
			s.loc = append(s.loc, l)
		}
	}
}

// sampleUniform appends k < npool distinct uniform pool members to
// s.loc, consuming the variates rng.SampleWithoutReplacement(npool, k)
// consumes and choosing what it chooses: rejection from a set while
// k*4 < npool, a partial Fisher–Yates otherwise.
func (s *NullSampler) sampleUniform(k int) {
	n := s.pool.npool
	if k*4 < n {
		for len(s.loc) < k {
			l := int32(s.src.Intn(n))
			if s.stamp[l] == s.gen {
				continue
			}
			s.stamp[l] = s.gen
			s.loc = append(s.loc, l)
		}
		return
	}
	p := s.perm
	s.undo = s.undo[:0]
	for i := 0; i < k; i++ {
		j := i + s.src.Intn(n-i)
		p[i], p[j] = p[j], p[i]
		s.undo = append(s.undo, int32(j))
	}
	s.loc = append(s.loc, p[:k]...)
	// Reverting the swaps last-first restores the identity in O(k),
	// where refilling it would cost O(npool) per draw.
	for i := k - 1; i >= 0; i-- {
		j := s.undo[i]
		p[i], p[j] = p[j], p[i]
	}
}

// drawFromCategory picks an unused member of the category. Duplicate
// draws retry a bounded number of times, then fall back to a linear
// scan for an unused member; if the whole category is exhausted — or
// the pool has none of it — the slot keeps the template's original
// ingredient.
func (s *NullSampler) drawFromCategory(cat uint8, orig int32) int32 {
	pool := s.pool.catPool[cat]
	if len(pool) == 0 {
		return orig
	}
	freq := s.catFreq[cat]
	for attempt := 0; attempt < 16; attempt++ {
		var l int32
		if freq != nil {
			l = pool[freq.Sample(s.src)]
		} else {
			l = pool[s.src.Intn(len(pool))]
		}
		if s.stamp[l] != s.gen {
			return l
		}
	}
	for _, l := range pool {
		if s.stamp[l] != s.gen {
			return l
		}
	}
	return orig
}

// scoreDraw returns Ns of the recipe in s.loc, as RecipeScore would for
// the same ingredients: zero table entries stand in for its profile
// filter and duplicate skip, and the pair sum is an integer, so its
// order is free.
func (s *NullSampler) scoreDraw() (float64, bool) {
	p := s.pool
	stride := len(p.ids)
	n := 0
	var sum int64
	for i, x := range s.loc {
		n += int(p.profiled[x])
		row := p.shared[int(x)*stride:][:stride]
		for _, y := range s.loc[i+1:] {
			sum += int64(row[y])
		}
	}
	if n < 2 {
		return 0, false
	}
	return score(sum, n), true
}

// NullMoments draws nRecipes randomized recipes and accumulates the mean
// and standard deviation of their pairing scores, in draw order: the
// package's one draw→score loop.
func (s *NullSampler) NullMoments(nRecipes int) (mean, std float64, scored int) {
	var acc stats.Accumulator
	for i := 0; i < nRecipes; i++ {
		s.draw()
		if v, ok := s.scoreDraw(); ok {
			acc.Add(v)
		}
	}
	return acc.Mean(), acc.PopStdDev(), acc.N()
}

// Compare runs the full §IV.B comparison for one cuisine and model:
// observed N̄s against the model's randomized moments over nRecipes
// draws, with the Z-score of the deviation.
func Compare(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model, nRecipes int, src *rng.Source) (Result, error) {
	sampler, err := NewNullSampler(a, store, c, m, src)
	if err != nil {
		return Result{}, err
	}
	observed, scored := a.CuisineScore(store, c)
	if scored == 0 {
		return Result{}, fmt.Errorf("pairing: cuisine %s has no scorable recipes", c.Region.Code())
	}
	mean, std, n := sampler.NullMoments(nRecipes)
	if n == 0 {
		return Result{}, fmt.Errorf("pairing: model %s produced no scorable recipes for %s", m, c.Region.Code())
	}
	return Result{
		Region:   c.Region,
		Model:    m,
		Observed: observed,
		NullMean: mean,
		NullStd:  std,
		NRandom:  n,
		Z:        stats.ZScore(observed, mean, std, n),
	}, nil
}

// ModelScore draws nRecipes recipes from model m and returns the mean
// pairing score of the model cuisine itself. Fig 4 plots, alongside each
// real cuisine, where each model cuisine falls relative to the Random
// control; this provides the model-side observable.
func ModelScore(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, m Model, nRecipes int, src *rng.Source) (float64, error) {
	sampler, err := NewNullSampler(a, store, c, m, src)
	if err != nil {
		return 0, err
	}
	mean, _, n := sampler.NullMoments(nRecipes)
	if n == 0 {
		return 0, fmt.Errorf("pairing: model %s produced no scorable recipes for %s", m, c.Region.Code())
	}
	return mean, nil
}
