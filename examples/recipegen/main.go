// Recipegen: use the food-pairing framework for the application the
// paper motivates — designing novel ingredient combinations. Starting
// from seed ingredients, the generator greedily extends a recipe with
// the catalog ingredient that best matches the target cuisine's pairing
// style (maximizing flavor sharing for uniform-pairing cuisines,
// minimizing it for contrasting ones), restricted to ingredients the
// cuisine actually uses.
//
// Usage: go run ./examples/recipegen [REGION_CODE] [seed ingredients...]
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

func main() {
	region := recipedb.Italy
	seeds := []string{"tomato", "basil"}
	if len(os.Args) > 1 {
		r, err := recipedb.ParseRegion(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		region = r
	}
	if len(os.Args) > 2 {
		seeds = os.Args[2:]
	}

	env, err := experiments.NewEnv(experiments.Options{
		Scale: 0.2, NullRecipes: 1000, Seed: 20180416,
	})
	if err != nil {
		log.Fatal(err)
	}
	catalog := env.Catalog

	recipe := make([]flavor.ID, 0, 9)
	for _, s := range seeds {
		id, ok := catalog.Lookup(s)
		if !ok {
			log.Fatalf("unknown ingredient %q", s)
		}
		recipe = append(recipe, id)
	}

	cuisine := env.Store.BuildCuisine(region)
	sign := float64(region.PairingSign())
	if sign == 0 {
		sign = 1
	}
	fmt.Printf("Designing a %s-style recipe (pairing sign %+.0f) from seeds %v\n\n",
		region.Code(), sign, seeds)

	for len(recipe) < 9 {
		best, bestScore := flavor.Invalid, 0.0
		for _, cand := range cuisine.UniqueIngredients {
			if !catalog.Ingredient(cand).HasProfile || contains(recipe, cand) {
				continue
			}
			var total float64
			for _, member := range recipe {
				total += float64(env.Analyzer.Shared(cand, member))
			}
			score := sign * total / float64(len(recipe))
			// Mild popularity prior: frequently used ingredients are more
			// culturally plausible.
			score += 0.08 * float64(cuisine.Uses(cand))
			if best == flavor.Invalid || score > bestScore {
				best, bestScore = cand, score
			}
		}
		if best == flavor.Invalid {
			break
		}
		recipe = append(recipe, best)
	}

	ns, _ := env.Analyzer.RecipeScore(recipe)
	fmt.Println("Suggested recipe:")
	names := make([]string, len(recipe))
	for i, id := range recipe {
		names[i] = catalog.Ingredient(id).Name
	}
	sort.Strings(names[len(seeds):]) // stable display of added items
	for i, n := range names {
		marker := "+"
		if i < len(seeds) {
			marker = "*"
		}
		fmt.Printf("  %s %s\n", marker, n)
	}
	fmt.Printf("\nfood pairing score Ns = %.2f (cuisine mean N̄s = %.2f)\n",
		ns, cuisineMean(env, cuisine))
	fmt.Println("* seed ingredient, + suggested")
}

func contains(ids []flavor.ID, id flavor.ID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

func cuisineMean(env *experiments.Env, c *recipedb.Cuisine) float64 {
	mean, _ := env.Analyzer.CuisineScore(env.Store, c)
	return mean
}
