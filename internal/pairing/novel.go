package pairing

import (
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// NovelPair is a candidate ingredient pairing for food design: two
// ingredients of a cuisine that match the cuisine's pairing style but
// rarely or never co-occur in its recipes — the "generating novel
// flavor pairings" application the paper's abstract motivates.
type NovelPair struct {
	A, B flavor.ID
	// Shared is the flavor-compound overlap of the pair.
	Shared int
	// CoOccurrences counts cuisine recipes containing both ingredients.
	CoOccurrences int
	// SupportA and SupportB are each ingredient's recipe counts.
	SupportA, SupportB int
}

// NovelPairs proposes up to k pairings for a cuisine. Candidates are
// pairs of profiled ingredients each used in at least minSupport
// recipes with at most maxCoOccur co-occurrences. For uniform-pairing
// cuisines (sign > 0) pairs are ranked by descending flavor overlap;
// for contrasting cuisines (sign < 0) by ascending overlap — each
// cuisine's own blending style, applied to combinations it has not
// explored.
func NovelPairs(a *Analyzer, store *recipedb.Store, c *recipedb.Cuisine, sign, k, minSupport, maxCoOccur int) []NovelPair {
	if k <= 0 {
		return nil
	}
	if minSupport < 1 {
		minSupport = 1
	}
	if sign == 0 {
		sign = 1
	}
	// Count pairwise co-occurrences over the cuisine's recipes.
	co := make(map[[2]flavor.ID]int)
	for _, ings := range store.IngredientLists(c.RecipeIDs) {
		for i := 0; i < len(ings); i++ {
			for j := i + 1; j < len(ings); j++ {
				x, y := ings[i], ings[j]
				if x > y {
					x, y = y, x
				}
				co[[2]flavor.ID{x, y}]++
			}
		}
	}
	catalog := a.Catalog()
	var candidates []NovelPair
	ids := c.UniqueIngredients
	for i := 0; i < len(ids); i++ {
		x := ids[i]
		if !catalog.Ingredient(x).HasProfile || c.Uses(x) < minSupport {
			continue
		}
		for j := i + 1; j < len(ids); j++ {
			y := ids[j]
			if !catalog.Ingredient(y).HasProfile || c.Uses(y) < minSupport {
				continue
			}
			n := co[[2]flavor.ID{x, y}]
			if n > maxCoOccur {
				continue
			}
			candidates = append(candidates, NovelPair{
				A: x, B: y,
				Shared:        a.Shared(x, y),
				CoOccurrences: n,
				SupportA:      c.Uses(x),
				SupportB:      c.Uses(y),
			})
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		si, sj := candidates[i].Shared, candidates[j].Shared
		if sign < 0 {
			si, sj = -si, -sj
		}
		if si != sj {
			return si > sj
		}
		if candidates[i].A != candidates[j].A {
			return candidates[i].A < candidates[j].A
		}
		return candidates[i].B < candidates[j].B
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	return candidates[:k]
}
