package classify

import (
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// FingerprintEntry is one distinctive ingredient of a region.
type FingerprintEntry struct {
	Ingredient flavor.ID
	// Prevalence is the fraction of the region's recipes using the
	// ingredient.
	Prevalence float64
	// Authenticity is prevalence minus the maximum prevalence of the
	// same ingredient in any other region (Ahn et al.'s authenticity);
	// positive values mark ingredients that characterize this cuisine.
	Authenticity float64
}

// Fingerprints computes, for each major region in the store, the k most
// authentic ingredients — the region's culinary fingerprint. Regions
// without recipes are omitted.
func Fingerprints(store *recipedb.Store, k int) map[recipedb.Region][]FingerprintEntry {
	regions := recipedb.MajorRegions()
	nItems := store.Catalog().Len()

	// prevalence[region][ingredient], from the store's per-region
	// counters under one read, so every region is counted at the same
	// version.
	prevalence := make(map[recipedb.Region][]float64, len(regions))
	store.Read(func(v *recipedb.View) {
		for _, region := range regions {
			n := v.RegionLen(region)
			if n == 0 {
				continue
			}
			_, uses := v.RegionUses(region)
			prev := make([]float64, nItems)
			for i, u := range uses {
				prev[i] = float64(u) / float64(n)
			}
			prevalence[region] = prev
		}
	})

	out := make(map[recipedb.Region][]FingerprintEntry, len(prevalence))
	for region, prev := range prevalence {
		entries := make([]FingerprintEntry, 0, nItems)
		for i := 0; i < nItems; i++ {
			if prev[i] == 0 {
				continue
			}
			maxOther := 0.0
			for other, oprev := range prevalence {
				if other == region {
					continue
				}
				if oprev[i] > maxOther {
					maxOther = oprev[i]
				}
			}
			entries = append(entries, FingerprintEntry{
				Ingredient:   flavor.ID(i),
				Prevalence:   prev[i],
				Authenticity: prev[i] - maxOther,
			})
		}
		sort.Slice(entries, func(a, b int) bool {
			if entries[a].Authenticity != entries[b].Authenticity {
				return entries[a].Authenticity > entries[b].Authenticity
			}
			return entries[a].Ingredient < entries[b].Ingredient
		})
		if k < len(entries) {
			entries = entries[:k]
		}
		out[region] = entries
	}
	return out
}
