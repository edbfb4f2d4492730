package pairing

import (
	"runtime"
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// Contribution records the effect of removing one ingredient from a
// cuisine (§IV.C): the percentage change in the cuisine's mean flavor
// sharing N̄s when every occurrence of the ingredient is deleted.
type Contribution struct {
	Ingredient flavor.ID
	Name       string
	// Freq is the ingredient's recipe count in the cuisine.
	Freq int
	// DeltaPct is 100 * (N̄s_without - N̄s_with) / N̄s_with. A negative
	// value means the ingredient was pulling the cuisine's flavor
	// sharing up (it contributes to positive food pairing); a positive
	// value means it was pulling sharing down.
	DeltaPct float64
}

// recipeState caches one recipe's raw pair sum and profiled member list
// for the leave-one-out sweep.
type recipeState struct {
	sum  int64
	prof []int
}

// contributionBase precomputes per-recipe pair sums, the base cuisine
// moments, and the inverted ingredient→recipes index shared by the
// serial and parallel contribution sweeps. The base mean is accumulated
// in recipe order so serial and parallel runs are bit-identical.
func (a *Analyzer) contributionBase(store *recipedb.Store, c *recipedb.Cuisine, workers int) (states []recipeState, recipesOf [][]int, baseSum float64, baseN int) {
	states = make([]recipeState, len(c.RecipeIDs))
	lists := store.IngredientLists(c.RecipeIDs)
	if workers > 1 {
		forEachIndexParallel(len(c.RecipeIDs), workers, func(k int) {
			sum, prof := a.pairSum(lists[k])
			states[k] = recipeState{sum: sum, prof: prof}
		})
	} else {
		for k := range lists {
			sum, prof := a.pairSum(lists[k])
			states[k] = recipeState{sum: sum, prof: prof}
		}
	}
	// recipesOf[i] lists indices into states for recipes containing
	// profiled ingredient i.
	recipesOf = make([][]int, a.n)
	for k := range states {
		st := &states[k]
		if len(st.prof) >= 2 {
			baseSum += score(st.sum, len(st.prof))
			baseN++
		}
		for _, ing := range st.prof {
			recipesOf[ing] = append(recipesOf[ing], k)
		}
	}
	return states, recipesOf, baseSum, baseN
}

// contributionOf computes one ingredient's leave-one-out delta against
// the precomputed base.
func (a *Analyzer) contributionOf(c *recipedb.Cuisine, id flavor.ID,
	states []recipeState, recipesOf [][]int, baseSum float64, baseN int, baseMean float64) Contribution {
	ing := int(id)
	affected := recipesOf[ing]
	if len(affected) == 0 {
		// Unprofiled ingredient: removal cannot change any score.
		return Contribution{
			Ingredient: id,
			Name:       a.catalog.Ingredient(id).Name,
			Freq:       c.Uses(id),
			DeltaPct:   0,
		}
	}
	newSum := baseSum
	newN := baseN
	for _, k := range affected {
		st := &states[k]
		n := len(st.prof)
		if n >= 2 {
			newSum -= score(st.sum, n)
			newN--
		}
		// Pair sum without ingredient ing.
		var drop int64
		for _, other := range st.prof {
			if other != ing {
				drop += int64(a.sharedSym(ing, other))
			}
		}
		if n-1 >= 2 {
			newSum += score(st.sum-drop, n-1)
			newN++
		}
	}
	var deltaPct float64
	if newN > 0 && baseMean != 0 {
		newMean := newSum / float64(newN)
		deltaPct = 100 * (newMean - baseMean) / baseMean
	}
	return Contribution{
		Ingredient: id,
		Name:       a.catalog.Ingredient(id).Name,
		Freq:       c.Uses(id),
		DeltaPct:   deltaPct,
	}
}

// Contributions computes the leave-one-out contribution of every
// ingredient used in the cuisine.
//
// The computation caches each recipe's raw pair sum and profiled member
// list so that removing ingredient i touches only the recipes containing
// i, making the full per-cuisine sweep O(Σ recipe sizes × mean size)
// instead of O(#ingredients × corpus).
func (a *Analyzer) Contributions(store *recipedb.Store, c *recipedb.Cuisine) []Contribution {
	return a.contributions(store, c, 1)
}

// ContributionsParallel is Contributions with the per-recipe pair-sum
// precompute and the per-ingredient sweep fanned out over workers
// (GOMAXPROCS when workers < 1). Every slot of the result is written by
// exactly one worker and all floating-point reductions happen in the
// same order as the serial sweep, so the output is bit-identical to
// Contributions regardless of scheduling.
func (a *Analyzer) ContributionsParallel(store *recipedb.Store, c *recipedb.Cuisine, workers int) []Contribution {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return a.contributions(store, c, workers)
}

func (a *Analyzer) contributions(store *recipedb.Store, c *recipedb.Cuisine, workers int) []Contribution {
	states, recipesOf, baseSum, baseN := a.contributionBase(store, c, workers)
	if baseN == 0 {
		return nil
	}
	baseMean := baseSum / float64(baseN)
	out := make([]Contribution, len(c.UniqueIngredients))
	if workers > 1 {
		forEachIndexParallel(len(c.UniqueIngredients), workers, func(i int) {
			out[i] = a.contributionOf(c, c.UniqueIngredients[i], states, recipesOf, baseSum, baseN, baseMean)
		})
	} else {
		for i, id := range c.UniqueIngredients {
			out[i] = a.contributionOf(c, id, states, recipesOf, baseSum, baseN, baseMean)
		}
	}
	return out
}

// TopContributors returns the k ingredients contributing most to the
// cuisine's observed pairing direction (Fig 5). For a positive-pairing
// cuisine (sign > 0) these are the ingredients whose removal most
// reduces N̄s (most negative DeltaPct); for negative pairing (sign < 0),
// those whose removal most increases it.
func TopContributors(contribs []Contribution, k int, sign int) []Contribution {
	sorted := append([]Contribution(nil), contribs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i].DeltaPct, sorted[j].DeltaPct
		if sign < 0 {
			a, b = -a, -b
		}
		if a != b {
			return a < b
		}
		return sorted[i].Ingredient < sorted[j].Ingredient
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}
