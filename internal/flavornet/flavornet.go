// Package flavornet builds the flavor network underlying the paper's
// analysis framework: the weighted graph whose nodes are ingredients
// and whose edge weights are shared flavor-compound counts (Ahn et al.,
// "Flavor network and the principles of food pairing", Sci. Rep. 2011 —
// reference [6] of the paper). The network view supports the
// prevalence/authenticity analyses that accompany food-pairing studies
// and the backbone extraction used to visualize them.
package flavornet

import (
	"fmt"
	"math"
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

// Edge is one weighted ingredient-ingredient link.
type Edge struct {
	A, B flavor.ID
	// Weight is |F(A) ∩ F(B)|, the shared flavor-compound count.
	Weight int
}

// Network is the flavor network over a catalog. Nodes are profiled
// ingredients; edges connect pairs sharing at least MinShared
// compounds. Immutable after Build.
type Network struct {
	catalog *flavor.Catalog
	// adj[id] lists neighbors with weights, sorted by neighbor ID.
	adj map[flavor.ID][]Edge
	// nodes are the profiled ingredient IDs, ascending.
	nodes     []flavor.ID
	edgeCount int
	minShared int
}

// Build constructs the flavor network from the analyzer's pair-sharing
// matrix, keeping edges with weight >= minShared (minShared < 1 is
// treated as 1: zero-weight pairs are non-edges by definition).
func Build(a *pairing.Analyzer, minShared int) *Network {
	if minShared < 1 {
		minShared = 1
	}
	catalog := a.Catalog()
	n := &Network{
		catalog:   catalog,
		adj:       make(map[flavor.ID][]Edge),
		minShared: minShared,
	}
	for i := 0; i < catalog.Len(); i++ {
		id := flavor.ID(i)
		if catalog.Ingredient(id).HasProfile {
			n.nodes = append(n.nodes, id)
		}
	}
	for i, a1 := range n.nodes {
		for _, b := range n.nodes[i+1:] {
			w := a.Shared(a1, b)
			if w >= minShared {
				n.adj[a1] = append(n.adj[a1], Edge{A: a1, B: b, Weight: w})
				n.adj[b] = append(n.adj[b], Edge{A: b, B: a1, Weight: w})
				n.edgeCount++
			}
		}
	}
	return n
}

// NumNodes returns the number of profiled ingredients.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumEdges returns the number of undirected edges.
func (n *Network) NumEdges() int { return n.edgeCount }

// MinShared returns the edge threshold the network was built with.
func (n *Network) MinShared() int { return n.minShared }

// Degree returns the number of neighbors of id.
func (n *Network) Degree(id flavor.ID) int { return len(n.adj[id]) }

// Strength returns the summed edge weight at id.
func (n *Network) Strength(id flavor.ID) int {
	s := 0
	for _, e := range n.adj[id] {
		s += e.Weight
	}
	return s
}

// Neighbors returns id's edges. The slice is shared; do not mutate.
func (n *Network) Neighbors(id flavor.ID) []Edge { return n.adj[id] }

// Nodes returns the profiled ingredient IDs, ascending. Shared slice.
func (n *Network) Nodes() []flavor.ID { return n.nodes }

// Density returns 2E / (N(N-1)).
func (n *Network) Density() float64 {
	nn := len(n.nodes)
	if nn < 2 {
		return 0
	}
	return 2 * float64(n.edgeCount) / (float64(nn) * float64(nn-1))
}

// ClusteringCoefficient returns the local clustering coefficient of id:
// the fraction of neighbor pairs that are themselves connected.
func (n *Network) ClusteringCoefficient(id flavor.ID) float64 {
	neigh := n.adj[id]
	k := len(neigh)
	if k < 2 {
		return 0
	}
	// Neighbor set for O(1) membership.
	set := make(map[flavor.ID]struct{}, k)
	for _, e := range neigh {
		set[e.B] = struct{}{}
	}
	links := 0
	for _, e := range neigh {
		for _, e2 := range n.adj[e.B] {
			if e2.B > e.B { // count each pair once
				if _, ok := set[e2.B]; ok {
					links++
				}
			}
		}
	}
	return 2 * float64(links) / (float64(k) * float64(k-1))
}

// MeanClustering averages the clustering coefficient over nodes with
// degree >= 2.
func (n *Network) MeanClustering() float64 {
	var sum float64
	count := 0
	for _, id := range n.nodes {
		if n.Degree(id) >= 2 {
			sum += n.ClusteringCoefficient(id)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Backbone extracts the multiscale backbone of the network (Serrano et
// al. disparity filter, the method Ahn et al. used for the flavor
// network figure): an edge survives if its weight is statistically
// significant at level alpha against a uniform null for at least one of
// its endpoints.
func (n *Network) Backbone(alpha float64) []Edge {
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	keep := make(map[[2]flavor.ID]Edge)
	canonical := func(e Edge) Edge {
		k := key(e)
		return Edge{A: k[0], B: k[1], Weight: e.Weight}
	}
	for _, id := range n.nodes {
		edges := n.adj[id]
		k := len(edges)
		if k < 2 {
			// Degree-1 nodes keep their only edge (standard convention).
			for _, e := range edges {
				keep[key(e)] = canonical(e)
			}
			continue
		}
		s := float64(n.Strength(id))
		for _, e := range edges {
			p := float64(e.Weight) / s
			// P-value of the disparity filter: (1-p)^(k-1).
			pval := math.Pow(1-p, float64(k-1))
			if pval < alpha {
				keep[key(e)] = canonical(e)
			}
		}
	}
	out := make([]Edge, 0, len(keep))
	for _, e := range keep {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

func key(e Edge) [2]flavor.ID {
	if e.A < e.B {
		return [2]flavor.ID{e.A, e.B}
	}
	return [2]flavor.ID{e.B, e.A}
}

// TopPairs returns the k heaviest edges in the network — the strongest
// flavor-sharing ingredient pairs (the "novel flavor pairings" seed
// list the paper's applications section motivates).
func (n *Network) TopPairs(k int) []Edge {
	all := make([]Edge, 0, n.edgeCount)
	seen := make(map[[2]flavor.ID]bool, n.edgeCount)
	for _, id := range n.nodes {
		for _, e := range n.adj[id] {
			kk := key(e)
			if !seen[kk] {
				seen[kk] = true
				all = append(all, Edge{A: kk[0], B: kk[1], Weight: e.Weight})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Weight != all[j].Weight {
			return all[i].Weight > all[j].Weight
		}
		if all[i].A != all[j].A {
			return all[i].A < all[j].A
		}
		return all[i].B < all[j].B
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Prevalence computes the fraction of a cuisine's recipes containing
// each ingredient (Ahn et al.'s prevalence P_i^c).
func Prevalence(store *recipedb.Store, c *recipedb.Cuisine) map[flavor.ID]float64 {
	out := make(map[flavor.ID]float64, len(c.UniqueIngredients))
	total := float64(c.NumRecipes())
	if total == 0 {
		return out
	}
	for _, id := range c.UniqueIngredients {
		out[id] = float64(c.Uses(id)) / total
	}
	return out
}

// Authenticity scores how characteristic each of a cuisine's
// ingredients is relative to the world: prevalence in the cuisine minus
// mean prevalence across the other major regions (Ahn et al.'s relative
// prevalence ΔP_i^c).
func Authenticity(store *recipedb.Store, region recipedb.Region) ([]flavor.ID, []float64, error) {
	if !region.Major() {
		return nil, nil, fmt.Errorf("flavornet: authenticity needs a major region, got %s", region.Code())
	}
	own := Prevalence(store, store.BuildCuisine(region))
	others := make([]map[flavor.ID]float64, 0, recipedb.NumMajorRegions-1)
	for _, r := range recipedb.MajorRegions() {
		if r == region {
			continue
		}
		others = append(others, Prevalence(store, store.BuildCuisine(r)))
	}
	ids := make([]flavor.ID, 0, len(own))
	for id := range own {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	scores := make([]float64, len(ids))
	for i, id := range ids {
		var mean float64
		for _, o := range others {
			mean += o[id]
		}
		mean /= float64(len(others))
		scores[i] = own[id] - mean
	}
	return ids, scores, nil
}

// TopAuthentic returns the k most authentic ingredients of a region in
// descending score order.
func TopAuthentic(store *recipedb.Store, region recipedb.Region, k int) ([]flavor.ID, []float64, error) {
	ids, scores, err := Authenticity(store, region)
	if err != nil {
		return nil, nil, err
	}
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return ids[idx[a]] < ids[idx[b]]
	})
	if k > len(idx) {
		k = len(idx)
	}
	outIDs := make([]flavor.ID, k)
	outScores := make([]float64, k)
	for i := 0; i < k; i++ {
		outIDs[i] = ids[idx[i]]
		outScores[i] = scores[idx[i]]
	}
	return outIDs, outScores, nil
}
