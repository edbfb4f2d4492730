// Package recommend implements the food-design applications the paper's
// abstract motivates: "generating novel flavor pairings and tweaking
// recipes". It offers recipe completion (which ingredient should join a
// partial recipe, given a cuisine's blending style) and ingredient
// substitution (which catalog entity can replace an ingredient while
// staying close in flavor and role).
package recommend

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

// ErrNoCandidates is returned when no ingredient satisfies the
// constraints.
var ErrNoCandidates = errors.New("recommend: no candidates")

// Suggestion is one ranked completion candidate.
type Suggestion struct {
	Ingredient flavor.ID
	// Score is the combined ranking score (higher is better).
	Score float64
	// FlavorFit is the mean shared-compound count with the partial
	// recipe, signed by the cuisine's pairing direction: uniform
	// cuisines reward overlap, contrasting cuisines reward its absence.
	FlavorFit float64
	// Popularity is the smoothed log-frequency of the ingredient in the
	// cuisine (the factor the paper finds dominates pairing patterns).
	Popularity float64
}

// CompleteOptions tunes Complete.
type CompleteOptions struct {
	// K is the number of suggestions (default 5).
	K int
	// Sign forces the pairing style: > 0 uniform, < 0 contrasting,
	// 0 = use the region's published Fig 4 direction.
	Sign int
	// PopularityWeight balances popularity against flavor fit
	// (default 1.0; 0 ranks on flavor alone).
	PopularityWeight float64
	// SameCategoryPenalty discourages a third spice when the partial
	// recipe already holds two, etc. 0 disables (default 0.25).
	SameCategoryPenalty float64
}

// Complete suggests ingredients to extend partial within the region's
// cuisine as v holds it (World pools every region). It reads the
// region's recipe count and per-ingredient use counts, so it must run
// inside the Read that produced v. Ingredients already present,
// profile-less entities and ingredients unused by the cuisine are
// excluded.
func Complete(v *recipedb.View, analyzer *pairing.Analyzer, region recipedb.Region, partial []flavor.ID, opts CompleteOptions) ([]Suggestion, error) {
	if len(partial) == 0 {
		return nil, fmt.Errorf("recommend: empty partial recipe")
	}
	if opts.K <= 0 {
		opts.K = 5
	}
	if opts.PopularityWeight == 0 {
		opts.PopularityWeight = 1.0
	}
	if opts.SameCategoryPenalty == 0 {
		opts.SameCategoryPenalty = 0.25
	}
	sign := opts.Sign
	if sign == 0 {
		sign = region.PairingSign()
	}
	if sign == 0 {
		sign = 1
	}
	recipes := v.RegionLen(region)
	if recipes == 0 {
		return nil, fmt.Errorf("recommend: region %s has no recipes", region.Code())
	}
	_, uses := v.RegionUses(region)
	catalog := v.Catalog()
	present := make(map[flavor.ID]bool, len(partial))
	catCount := make(map[flavor.Category]int)
	for _, id := range partial {
		if int(id) < 0 || int(id) >= catalog.Len() {
			return nil, fmt.Errorf("recommend: ingredient %d outside catalog", id)
		}
		present[id] = true
		catCount[catalog.Ingredient(id).Category]++
	}

	// Normalize flavor fit by the cuisine's own mean pair sharing so the
	// popularity and flavor terms live on comparable scales.
	meanShared, n := 0.0, 0
	for i := 0; i < len(partial); i++ {
		for j := i + 1; j < len(partial); j++ {
			meanShared += float64(analyzer.Shared(partial[i], partial[j]))
			n++
		}
	}
	norm := 1.0
	if n > 0 && meanShared > 0 {
		norm = meanShared / float64(n)
	}

	out := make([]Suggestion, 0, v.RegionIngredients(region))
	for i, used := range uses {
		cand := flavor.ID(i)
		if used == 0 || present[cand] || !catalog.Ingredient(cand).HasProfile {
			continue
		}
		var fit float64
		profiled := 0
		for _, id := range partial {
			if !catalog.Ingredient(id).HasProfile {
				continue
			}
			fit += float64(analyzer.Shared(cand, id))
			profiled++
		}
		if profiled == 0 {
			continue
		}
		fit = fit / float64(profiled) / norm * float64(sign)
		pop := math.Log1p(float64(used)) / math.Log1p(float64(recipes))
		score := fit + opts.PopularityWeight*pop
		score -= opts.SameCategoryPenalty * float64(catCount[catalog.Ingredient(cand).Category])
		out = append(out, Suggestion{
			Ingredient: cand,
			Score:      score,
			FlavorFit:  fit,
			Popularity: pop,
		})
	}
	if len(out) == 0 {
		return nil, ErrNoCandidates
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Ingredient < out[j].Ingredient
	})
	if opts.K < len(out) {
		out = out[:opts.K]
	}
	return out, nil
}

// Substitute is one ranked replacement candidate.
type Substitute struct {
	Ingredient flavor.ID
	// Similarity is the Jaccard overlap of the two flavor profiles.
	Similarity float64
	// SameCategory reports whether the candidate shares the original's
	// category (the 'role' constraint).
	SameCategory bool
}

// SubstituteOptions tunes Substitutes.
type SubstituteOptions struct {
	// K is the number of substitutes (default 5).
	K int
	// RequireSameCategory restricts candidates to the original's
	// category (default true via NewSubstituteOptions; the zero value
	// of this struct searches all categories).
	RequireSameCategory bool
	// MinSimilarity drops candidates below this Jaccard overlap
	// (default 0).
	MinSimilarity float64
}

// Substitutes ranks replacements for the given ingredient by flavor-
// profile similarity. Candidates must carry a profile; the ingredient
// itself is excluded. It reads the catalog only, never the corpus.
func Substitutes(catalog *flavor.Catalog, id flavor.ID, opts SubstituteOptions) ([]Substitute, error) {
	if int(id) < 0 || int(id) >= catalog.Len() {
		return nil, fmt.Errorf("recommend: ingredient %d outside catalog", id)
	}
	orig := catalog.Ingredient(id)
	if !orig.HasProfile {
		return nil, fmt.Errorf("recommend: ingredient %q has no flavor profile", orig.Name)
	}
	if opts.K <= 0 {
		opts.K = 5
	}
	origProfile := catalog.Profile(id)
	origSize := origProfile.Count()

	var out []Substitute
	consider := func(cand flavor.ID) {
		if cand == id {
			return
		}
		ing := catalog.Ingredient(cand)
		if !ing.HasProfile {
			return
		}
		inter := origProfile.IntersectionCount(catalog.Profile(cand))
		union := origSize + catalog.Profile(cand).Count() - inter
		if union == 0 {
			return
		}
		sim := float64(inter) / float64(union)
		if sim < opts.MinSimilarity {
			return
		}
		out = append(out, Substitute{
			Ingredient:   cand,
			Similarity:   sim,
			SameCategory: ing.Category == orig.Category,
		})
	}
	if opts.RequireSameCategory {
		for _, cand := range catalog.ByCategory(orig.Category) {
			consider(cand)
		}
	} else {
		for i := 0; i < catalog.Len(); i++ {
			consider(flavor.ID(i))
		}
	}
	if len(out) == 0 {
		return nil, ErrNoCandidates
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Ingredient < out[j].Ingredient
	})
	if opts.K < len(out) {
		out = out[:opts.K]
	}
	return out, nil
}
