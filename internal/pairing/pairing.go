// Package pairing implements the paper's primary contribution: the
// food-pairing analysis of §IV.B-C.
//
// The food pairing score of a recipe R with n_R ingredients is
//
//	Ns(R) = 2/(n_R (n_R - 1)) * Σ_{i<j ∈ R} |F(i) ∩ F(j)|
//
// where F(i) is the flavor profile of ingredient i. A cuisine's flavor
// sharing N̄s is the mean Ns over its recipes. Each cuisine is compared
// against four randomized controls that preserve its exact ingredient
// set and recipe-size distribution (Random, Ingredient Frequency,
// Ingredient Category, Frequency+Category), and significance is
// expressed as a Z-score against the Random control. Ingredient
// contribution is the percentage change in N̄s upon removal of an
// ingredient from the cuisine.
//
// Ingredients without flavor profiles (the paper's four no-profile
// additives) are excluded from the pair sums and from n_R; a recipe with
// fewer than two profiled ingredients has no defined score and is
// skipped by cuisine averages.
package pairing

import (
	"fmt"
	"runtime"

	"culinary/internal/bitset"
	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/stats"
)

// Analyzer computes food-pairing statistics against a fixed catalog. It
// precomputes the ingredient-pair shared-compound counts once; after
// construction it is immutable and safe for concurrent use.
//
// Counts are held in packed strict-upper-triangular storage: entry
// (i, j) with i < j lives at tri[triRow[i]+j], which halves the memory
// of the previous dense n×n matrix while answering the same lookups.
// The diagonal is implicit (an ingredient shares no *pair* with itself)
// and symmetry is restored by ordering the indices at lookup time.
type Analyzer struct {
	catalog    *flavor.Catalog
	tri        []int32 // packed strict upper triangle, row-major
	triRow     []int   // triRow[i] + j == packed index of (i, j), i < j
	n          int
	hasProfile []bool
}

// constructionChunk is the number of matrix rows a worker claims per
// grab during parallel construction. Rows shrink as i grows (row i has
// n-1-i columns), so small dynamic chunks keep the pool balanced
// without a static partition that would leave early workers with most
// of the triangle.
const constructionChunk = 16

// NewAnalyzer builds an analyzer, precomputing the pairwise
// shared-compound counts (the dominant cost of naive pairing analysis;
// see the cached-vs-uncached ablation bench). Construction fans the
// triangle's rows out over GOMAXPROCS workers; the result is identical
// to a serial build regardless of scheduling because every packed entry
// is written exactly once.
func NewAnalyzer(catalog *flavor.Catalog) *Analyzer {
	return NewAnalyzerParallel(catalog, runtime.GOMAXPROCS(0))
}

// NewAnalyzerParallel is NewAnalyzer with an explicit worker count,
// exposed for benchmarks and for callers embedding construction inside
// an already-parallel pipeline. workers < 1 falls back to 1.
func NewAnalyzerParallel(catalog *flavor.Catalog, workers int) *Analyzer {
	n := catalog.Len()
	a := &Analyzer{
		catalog:    catalog,
		tri:        make([]int32, n*(n-1)/2),
		triRow:     make([]int, n),
		n:          n,
		hasProfile: make([]bool, n),
	}
	profiles := make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		a.hasProfile[i] = catalog.Ingredient(flavor.ID(i)).HasProfile
		profiles[i] = catalog.Profile(flavor.ID(i))
		// Row i of the strict upper triangle starts at
		// i*(n-1) - i*(i-1)/2; subtracting i+1 folds the column offset
		// j-i-1 into a single add at lookup time.
		a.triRow[i] = i*(n-1) - i*(i-1)/2 - i - 1
	}

	fillRow := func(i int) {
		if !a.hasProfile[i] {
			// Profile-less additives have empty profiles: every
			// intersection is zero and the packed row is already
			// zeroed, so the whole row is skipped.
			return
		}
		start := a.triRow[i] + i + 1
		profiles[i].IntersectionCountMany(profiles[i+1:], a.tri[start:start+n-1-i])
	}

	if workers < 1 {
		workers = 1
	}
	// Worker pool over row chunks: workers pull chunks as they finish,
	// so the long early rows and short late rows balance out
	// dynamically. Every packed entry is written by exactly one worker.
	forEachChunkParallel(n-1, workers, constructionChunk, fillRow)
	return a
}

// Catalog returns the catalog the analyzer is bound to.
func (a *Analyzer) Catalog() *flavor.Catalog { return a.catalog }

// Shared returns |F(x) ∩ F(y)| from the precomputed triangle. The
// diagonal is 0 by construction, matching the dense matrix this storage
// replaced (an ingredient forms no pair with itself).
func (a *Analyzer) Shared(x, y flavor.ID) int {
	i, j := int(x), int(y)
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return int(a.tri[a.triRow[i]+j])
}

// sharedOrdered returns the packed count for i < j without the
// symmetry swap, for hot loops that already know the order.
func (a *Analyzer) sharedOrdered(i, j int) int32 {
	return a.tri[a.triRow[i]+j]
}

// sharedSym is the symmetric int-indexed lookup for i != j; callers
// that may see i == j must skip that case (the implicit diagonal is 0).
func (a *Analyzer) sharedSym(i, j int) int32 {
	if i < j {
		return a.sharedOrdered(i, j)
	}
	return a.sharedOrdered(j, i)
}

// scoreStackIDs is the recipe length RecipeScore handles without
// touching the heap; the corpus's longest recipes are well inside it,
// and a longer list only costs the allocation it always did.
const scoreStackIDs = 64

// gatherProfiled appends the profiled members of ids to dst in
// ascending id order (insertion sort: recipes are short), duplicates
// kept. Sorted members let orderedPairSum read the triangle without the
// symmetry branch.
func (a *Analyzer) gatherProfiled(dst []int, ids []flavor.ID) []int {
	for _, id := range ids {
		if !a.hasProfile[id] {
			continue
		}
		x := int(id)
		dst = append(dst, x)
		j := len(dst) - 1
		for ; j > 0 && dst[j-1] > x; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = x
	}
	return dst
}

// orderedPairSum returns the raw Σ|F(i)∩F(j)| over the pairs of an
// ascending member list.
func (a *Analyzer) orderedPairSum(prof []int) int64 {
	var sum int64
	for i, x := range prof {
		for _, y := range prof[i+1:] {
			if x == y {
				continue // duplicate member: an ingredient forms no pair with itself
			}
			sum += int64(a.sharedOrdered(x, y))
		}
	}
	return sum
}

// RecipeScore computes Ns(R) for a list of ingredient IDs. The boolean
// result is false when fewer than two profiled ingredients are present,
// in which case the score is undefined (returned as 0).
func (a *Analyzer) RecipeScore(ids []flavor.ID) (float64, bool) {
	var stack [scoreStackIDs]int
	prof := a.gatherProfiled(stack[:0], ids)
	n := len(prof)
	if n < 2 {
		return 0, false
	}
	return score(a.orderedPairSum(prof), n), true
}

// score is Ns for a raw pair sum over n profiled ingredients.
func score(sum int64, n int) float64 {
	return 2 * float64(sum) / (float64(n) * float64(n-1))
}

// pairSum returns the raw Σ|F(i)∩F(j)| and the (ascending) profiled
// members of a recipe, kept per recipe by the leave-one-out
// contribution computation.
func (a *Analyzer) pairSum(ids []flavor.ID) (sum int64, profiled []int) {
	prof := a.gatherProfiled(make([]int, 0, len(ids)), ids)
	return a.orderedPairSum(prof), prof
}

// CuisineScore computes the mean flavor sharing N̄s of the cuisine,
// skipping recipes with undefined scores. The second result is the
// number of scored recipes.
func (a *Analyzer) CuisineScore(store *recipedb.Store, c *recipedb.Cuisine) (float64, int) {
	var acc stats.Accumulator
	for _, ings := range store.IngredientLists(c.RecipeIDs) {
		if s, ok := a.RecipeScore(ings); ok {
			acc.Add(s)
		}
	}
	return acc.Mean(), acc.N()
}

// Result bundles the observed cuisine score, a null model's moments, and
// the Z-score of the deviation, for one (cuisine, model) cell of Fig 4.
type Result struct {
	Region   recipedb.Region
	Model    Model
	Observed float64 // N̄s of the real cuisine (or of a model cuisine in model-vs-random comparisons)
	NullMean float64
	NullStd  float64
	NRandom  int
	Z        float64
}

// String renders a compact summary for logs and CLI output.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: observed=%.4f null=%.4f±%.4f Z=%+.1f",
		r.Region.Code(), r.Model, r.Observed, r.NullMean, r.NullStd, r.Z)
}
