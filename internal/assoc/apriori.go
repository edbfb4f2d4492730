// Package assoc implements frequent-itemset and association-rule mining
// over recipe corpora — the classic market-basket machinery applied to
// ingredient co-occurrence. It supports the paper's higher-order
// pattern question ("instead of pairs what if one were to compute
// triples and quadruples of ingredients?") from the combinatorial side:
// which ingredient tuples actually recur in a cuisine, and which
// co-occurrences are over-represented (lift) beyond popularity.
//
// The miner is a level-wise Apriori: candidates of size k+1 are joined
// from frequent k-itemsets sharing a (k-1)-prefix, pruned by the
// downward-closure property, and counted in one pass over the recipes.
package assoc

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// ItemSet is a frequent ingredient set with its support count.
type ItemSet struct {
	// Items are ingredient IDs in ascending order.
	Items []flavor.ID
	// Count is the number of recipes containing every item.
	Count int
	// Support is Count / #recipes.
	Support float64
}

// Rule is one association rule A → B with standard quality measures.
type Rule struct {
	// Antecedent and Consequent are disjoint ascending ingredient sets.
	Antecedent, Consequent []flavor.ID
	// Support is the joint support of A ∪ B.
	Support float64
	// Confidence is P(B | A).
	Confidence float64
	// Lift is Confidence / P(B); lift > 1 marks over-represented
	// co-occurrence beyond the consequent's popularity.
	Lift float64
}

// Config bounds the mining run.
type Config struct {
	// MinSupport is the minimum fraction of recipes an itemset must
	// appear in.
	MinSupport float64
	// MaxSize bounds itemset cardinality (the paper's question concerns
	// sizes up to 4).
	MaxSize int
	// MinConfidence filters rules.
	MinConfidence float64
}

// DefaultConfig mines pairs through quadruples at 2% support.
func DefaultConfig() Config {
	return Config{MinSupport: 0.02, MaxSize: 4, MinConfidence: 0.3}
}

func (cfg Config) validate() error {
	switch {
	case cfg.MinSupport <= 0 || cfg.MinSupport > 1:
		return fmt.Errorf("assoc: MinSupport %g outside (0,1]", cfg.MinSupport)
	case cfg.MaxSize < 1:
		return fmt.Errorf("assoc: MaxSize %d < 1", cfg.MaxSize)
	case cfg.MinConfidence < 0 || cfg.MinConfidence > 1:
		return fmt.Errorf("assoc: MinConfidence %g outside [0,1]", cfg.MinConfidence)
	}
	return nil
}

// Mine finds all frequent itemsets of a cuisine up to cfg.MaxSize.
// Results are grouped by size (index 0 holds singletons) and sorted by
// descending support within each size.
func Mine(store *recipedb.Store, c *recipedb.Cuisine, cfg Config) ([][]ItemSet, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(c.RecipeIDs)
	if n == 0 {
		return nil, fmt.Errorf("assoc: cuisine %s has no recipes", c.Region.Code())
	}
	// Ceil, not floor: a count of ceil(s·n)-1 has support strictly below
	// s, so flooring would admit itemsets violating the threshold.
	minCount := int(math.Ceil(cfg.MinSupport * float64(n)))
	if minCount < 1 {
		minCount = 1
	}

	// Transactions as sorted ID slices, copied off the store's lists
	// (fetched under one lock).
	txs := store.IngredientLists(c.RecipeIDs)
	for i, list := range txs {
		ings := slices.Clone(list)
		slices.Sort(ings)
		txs[i] = ings
	}

	// Level 1: singletons from the cuisine frequency index.
	var level []ItemSet
	for _, id := range c.UniqueIngredients {
		if cnt := c.Uses(id); cnt >= minCount {
			level = append(level, ItemSet{
				Items:   []flavor.ID{id},
				Count:   cnt,
				Support: float64(cnt) / float64(n),
			})
		}
	}
	sortLevel(level)
	out := [][]ItemSet{level}

	for size := 2; size <= cfg.MaxSize && len(level) > 1; size++ {
		candidates := join(level)
		if len(candidates) == 0 {
			break
		}
		counts := countCandidates(candidates, txs)
		var next []ItemSet
		for i, cand := range candidates {
			if counts[i] >= minCount {
				next = append(next, ItemSet{
					Items:   cand,
					Count:   counts[i],
					Support: float64(counts[i]) / float64(n),
				})
			}
		}
		sortLevel(next)
		if len(next) == 0 {
			break
		}
		out = append(out, next)
		level = next
	}
	return out, nil
}

func sortLevel(level []ItemSet) {
	sort.Slice(level, func(i, j int) bool {
		if level[i].Count != level[j].Count {
			return level[i].Count > level[j].Count
		}
		return lessIDs(level[i].Items, level[j].Items)
	})
}

func lessIDs(a, b []flavor.ID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// join produces size-(k+1) candidates from frequent k-itemsets sharing
// a (k-1)-prefix, with downward-closure pruning.
func join(level []ItemSet) [][]flavor.ID {
	// Index for closure pruning.
	frequent := make(map[string]bool, len(level))
	for _, is := range level {
		frequent[fingerprint(is.Items)] = true
	}
	// Sort lexically for prefix joining.
	sorted := make([][]flavor.ID, len(level))
	for i, is := range level {
		sorted[i] = is.Items
	}
	sort.Slice(sorted, func(i, j int) bool { return lessIDs(sorted[i], sorted[j]) })

	var out [][]flavor.ID
	k := len(sorted[0])
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if !samePrefix(sorted[i], sorted[j], k-1) {
				break // lexical order: once prefixes diverge, stop
			}
			cand := make([]flavor.ID, k+1)
			copy(cand, sorted[i])
			cand[k] = sorted[j][k-1]
			if cand[k-1] > cand[k] {
				cand[k-1], cand[k] = cand[k], cand[k-1]
			}
			if allSubsetsFrequent(cand, frequent) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func samePrefix(a, b []flavor.ID, k int) bool {
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fingerprint(ids []flavor.ID) string {
	b := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return string(b)
}

// allSubsetsFrequent applies downward closure: every k-subset of the
// candidate must be frequent.
func allSubsetsFrequent(cand []flavor.ID, frequent map[string]bool) bool {
	if len(cand) <= 2 {
		return true // subsets are the joined singletons themselves
	}
	buf := make([]flavor.ID, 0, len(cand)-1)
	for skip := range cand {
		buf = buf[:0]
		for i, id := range cand {
			if i != skip {
				buf = append(buf, id)
			}
		}
		if !frequent[fingerprint(buf)] {
			return false
		}
	}
	return true
}

// countCandidates counts each candidate's occurrences across the
// transactions using sorted-merge containment.
func countCandidates(candidates [][]flavor.ID, txs [][]flavor.ID) []int {
	counts := make([]int, len(candidates))
	for _, tx := range txs {
		for i, cand := range candidates {
			if containsSorted(tx, cand) {
				counts[i]++
			}
		}
	}
	return counts
}

func containsSorted(tx, cand []flavor.ID) bool {
	i := 0
	for _, want := range cand {
		for i < len(tx) && tx[i] < want {
			i++
		}
		if i >= len(tx) || tx[i] != want {
			return false
		}
		i++
	}
	return true
}

// Rules derives association rules with one-item consequents from the
// mined itemsets (the standard, interpretable rule shape for
// ingredient data: "recipes with A and B also use C").
func Rules(levels [][]ItemSet, c *recipedb.Cuisine, cfg Config) []Rule {
	if len(levels) == 0 {
		return nil
	}
	n := float64(len(c.RecipeIDs))
	if n == 0 {
		return nil
	}
	// Support lookup across all levels.
	support := make(map[string]float64)
	for _, level := range levels {
		for _, is := range level {
			support[fingerprint(is.Items)] = is.Support
		}
	}
	var out []Rule
	for _, level := range levels[1:] { // rules need >= 2 items
		for _, is := range level {
			for skip, consequent := range is.Items {
				antecedent := make([]flavor.ID, 0, len(is.Items)-1)
				for i, id := range is.Items {
					if i != skip {
						antecedent = append(antecedent, id)
					}
				}
				sa, ok := support[fingerprint(antecedent)]
				if !ok || sa == 0 {
					continue
				}
				conf := is.Support / sa
				if conf < cfg.MinConfidence {
					continue
				}
				sc := float64(c.Uses(consequent)) / n
				lift := 0.0
				if sc > 0 {
					lift = conf / sc
				}
				out = append(out, Rule{
					Antecedent: antecedent,
					Consequent: []flavor.ID{consequent},
					Support:    is.Support,
					Confidence: conf,
					Lift:       lift,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lift != out[j].Lift {
			return out[i].Lift > out[j].Lift
		}
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if !equalIDs(out[i].Antecedent, out[j].Antecedent) {
			return lessIDs(out[i].Antecedent, out[j].Antecedent)
		}
		return lessIDs(out[i].Consequent, out[j].Consequent)
	})
	return out
}

func equalIDs(a, b []flavor.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
