// Package flavor implements the FlavorDB substrate: the ingredient
// catalog (basic and compound ingredients in the paper's 21 categories,
// with synonyms and spelling variants), the flavor-molecule universe, and
// a deterministic synthetic generator that assigns each ingredient a
// flavor profile (a set of molecules).
//
// The real FlavorDB (Garg et al., NAR 2018) aggregates empirically
// reported flavor molecules per natural ingredient. That resource is not
// redistributable here, so profiles are synthesized from a latent
// flavor-space model calibrated to the structural properties that the
// food-pairing analysis depends on: heavy-tailed profile sizes, strong
// within-category molecule sharing, weaker cross-category sharing, and a
// shared backbone of ubiquitous molecules.
package flavor

import "fmt"

// Category classifies an ingredient into one of the paper's 21 classes
// (§III.B): Vegetable, Dairy, Legume, Maize, Cereal, Meat, Nuts and
// Seeds, Plant, Fish, Seafood, Spice, Bakery, Beverage Alcoholic,
// Beverage, Essential Oil, Flower, Fruit, Fungus, Herb, Additive, Dish.
type Category int

// The paper's 21 ingredient categories.
const (
	Vegetable Category = iota
	Dairy
	Legume
	Maize
	Cereal
	Meat
	NutsAndSeeds
	Plant
	Fish
	Seafood
	Spice
	Bakery
	BeverageAlcoholic
	Beverage
	EssentialOil
	Flower
	Fruit
	Fungus
	Herb
	Additive
	Dish
	numCategories // sentinel
)

// NumCategories is the number of ingredient categories (21).
const NumCategories = int(numCategories)

var categoryNames = [...]string{
	Vegetable:         "Vegetable",
	Dairy:             "Dairy",
	Legume:            "Legume",
	Maize:             "Maize",
	Cereal:            "Cereal",
	Meat:              "Meat",
	NutsAndSeeds:      "Nuts and Seeds",
	Plant:             "Plant",
	Fish:              "Fish",
	Seafood:           "Seafood",
	Spice:             "Spice",
	Bakery:            "Bakery",
	BeverageAlcoholic: "Beverage Alcoholic",
	Beverage:          "Beverage",
	EssentialOil:      "Essential Oil",
	Flower:            "Flower",
	Fruit:             "Fruit",
	Fungus:            "Fungus",
	Herb:              "Herb",
	Additive:          "Additive",
	Dish:              "Dish",
}

// String returns the category's display name as used in the paper.
func (c Category) String() string {
	if c < 0 || c >= numCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// Valid reports whether c is one of the 21 defined categories.
func (c Category) Valid() bool { return c >= 0 && c < numCategories }

// AllCategories returns the 21 categories in declaration order.
func AllCategories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// ParseCategory maps a display name back to its Category.
func ParseCategory(name string) (Category, error) {
	for i, n := range categoryNames {
		if n == name {
			return Category(i), nil
		}
	}
	return 0, fmt.Errorf("flavor: unknown category %q", name)
}
