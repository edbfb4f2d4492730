package experiments

import (
	"fmt"
	"strings"

	"culinary/internal/assoc"
	"culinary/internal/cluster"
	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/report"
)

// ClusterResult is the cuisine-similarity analysis: regions clustered by
// the cosine distance of their ingredient-prevalence vectors. Cuisines
// are 'dialects' (§II.A's language analogy); the dendrogram shows which
// dialects are close.
type ClusterResult struct {
	// Regions indexes the leaves of Root.
	Regions []recipedb.Region
	// Root is the average-linkage dendrogram.
	Root *cluster.Node
	// Groups is the partition cut at half the root height, each group a
	// set of region indexes into Regions.
	Groups [][]int
}

// ExtCluster clusters the major regions by ingredient-prevalence
// cosine similarity.
func (e *Env) ExtCluster() (*ClusterResult, error) {
	regions := recipedb.MajorRegions()
	vectors := make([][]float64, 0, len(regions))
	used := make([]recipedb.Region, 0, len(regions))
	n := e.Catalog.Len()
	for _, r := range regions {
		c := e.Store.BuildCuisine(r)
		if c.NumRecipes() == 0 {
			continue
		}
		vec := make([]float64, n)
		for _, id := range c.UniqueIngredients {
			vec[id] = float64(c.Uses(id)) / float64(c.NumRecipes())
		}
		vectors = append(vectors, vec)
		used = append(used, r)
	}
	root, err := cluster.Hierarchical(vectors, cluster.CosineDistance, cluster.Average)
	if err != nil {
		return nil, fmt.Errorf("experiments: clustering cuisines: %w", err)
	}
	return &ClusterResult{
		Regions: used,
		Root:    root,
		Groups:  cluster.Cut(root, root.Height/2),
	}, nil
}

// ExtClusterReport renders the dendrogram and the half-height cut.
func (e *Env) ExtClusterReport(res *ClusterResult) *report.Table {
	labels := make([]string, len(res.Regions))
	for i, r := range res.Regions {
		labels[i] = r.Code()
	}
	t := report.NewTable(
		fmt.Sprintf("Ext-9. Cuisine similarity (ingredient prevalence, cosine, average linkage): %d groups at half height",
			len(res.Groups)),
		"Group", "Regions")
	for gi, group := range res.Groups {
		codes := make([]string, len(group))
		for i, leaf := range group {
			codes[i] = labels[leaf]
		}
		t.AddRow(fmt.Sprintf("G%d", gi+1), strings.Join(codes, " "))
	}
	return t
}

// ClusterDendrogram renders the full tree as text.
func (e *Env) ClusterDendrogram(res *ClusterResult) string {
	labels := make([]string, len(res.Regions))
	for i, r := range res.Regions {
		labels[i] = r.Code()
	}
	return cluster.Render(res.Root, labels)
}

// RulesResult holds the association-rule mining of one cuisine — the
// paper's higher-order n-tuple question approached with the standard
// data-mining machinery (frequent itemsets up to quadruples).
type RulesResult struct {
	Region recipedb.Region
	Config assoc.Config
	// Levels[k] holds the frequent itemsets of size k+1.
	Levels [][]assoc.ItemSet
	// Rules are the confident rules, sorted by descending lift.
	Rules []assoc.Rule
}

// ExtRules mines frequent ingredient combinations and association rules
// for one region (default Italy, the largest non-US cuisine).
func (e *Env) ExtRules(region recipedb.Region, cfg assoc.Config) (*RulesResult, error) {
	if cfg == (assoc.Config{}) {
		cfg = assoc.DefaultConfig()
	}
	c := e.Store.BuildCuisine(region)
	levels, err := assoc.Mine(e.Store, c, cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: mining %s: %w", region.Code(), err)
	}
	return &RulesResult{
		Region: region,
		Config: cfg,
		Levels: levels,
		Rules:  assoc.Rules(levels, c, cfg),
	}, nil
}

// ExtRulesReport renders itemset counts per size and the top rules.
func (e *Env) ExtRulesReport(res *RulesResult, topK int) (*report.Table, *report.Table) {
	counts := report.NewTable(
		fmt.Sprintf("Ext-10. Frequent ingredient itemsets in %s (support >= %.0f%%)",
			res.Region.Code(), res.Config.MinSupport*100),
		"Size", "Itemsets", "TopSet", "Support")
	for i, level := range res.Levels {
		if len(level) == 0 {
			continue
		}
		top := level[0]
		counts.AddRow(i+1, len(level), e.itemNames(top.Items), fmt.Sprintf("%.3f", top.Support))
	}
	rules := report.NewTable(
		fmt.Sprintf("Top association rules in %s (confidence >= %.0f%%, by lift)",
			res.Region.Code(), res.Config.MinConfidence*100),
		"Rule", "Support", "Confidence", "Lift")
	if topK <= 0 {
		topK = 10
	}
	for i, r := range res.Rules {
		if i >= topK {
			break
		}
		rules.AddRow(
			e.itemNames(r.Antecedent)+" => "+e.itemNames(r.Consequent),
			fmt.Sprintf("%.3f", r.Support),
			fmt.Sprintf("%.2f", r.Confidence),
			fmt.Sprintf("%.2f", r.Lift))
	}
	return counts, rules
}

// itemNames renders an ingredient-ID set as comma-joined names.
func (e *Env) itemNames(ids []flavor.ID) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = e.Catalog.Ingredient(id).Name
	}
	return strings.Join(names, ", ")
}
