package experiments

import (
	"fmt"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/report"
	"culinary/internal/stats"
)

// Table1Row is one region's corpus statistics (Table 1 of the paper).
type Table1Row struct {
	Region      recipedb.Region
	Recipes     int
	Ingredients int
}

// Table1 computes recipes and unique ingredients per major region plus
// the WORLD total, mirroring Table 1.
func (e *Env) Table1() []Table1Row {
	rows := make([]Table1Row, 0, recipedb.NumMajorRegions+1)
	for _, r := range recipedb.MajorRegions() {
		c := e.Store.BuildCuisine(r)
		rows = append(rows, Table1Row{
			Region:      r,
			Recipes:     c.NumRecipes(),
			Ingredients: c.NumUniqueIngredients(),
		})
	}
	world := e.Store.BuildCuisine(recipedb.World)
	rows = append(rows, Table1Row{
		Region:      recipedb.World,
		Recipes:     world.NumRecipes(),
		Ingredients: world.NumUniqueIngredients(),
	})
	return rows
}

// Table1Report renders Table 1 with paper-vs-measured columns.
func (e *Env) Table1Report() *report.Table {
	t := report.NewTable(
		"Table 1. Statistics of recipes and ingredients across world cuisines",
		"Region", "Code", "Recipes", "Recipes(paper)", "Ingredients", "Ingredients(paper)")
	for _, row := range e.Table1() {
		paperIng := fmt.Sprintf("%d", row.Region.PaperIngredientCount())
		if row.Region == recipedb.World {
			paperIng = "-"
		}
		t.AddRow(row.Region.Name(), row.Region.Code(), row.Recipes,
			row.Region.PaperRecipeCount(), row.Ingredients, paperIng)
	}
	return t
}

// Fig2 computes the category-usage fractions per region (+WORLD): the
// Fig 2 heatmap. Rows follow Table 1 order with WORLD last; columns are
// the 21 categories.
func (e *Env) Fig2() *report.Heatmap {
	regions := append(recipedb.MajorRegions(), recipedb.World)
	h := &report.Heatmap{
		Title: "Fig 2. Compositions of recipes in terms of ingredient categories",
	}
	for _, cat := range flavor.AllCategories() {
		h.ColLabels = append(h.ColLabels, cat.String())
	}
	for _, r := range regions {
		h.RowLabels = append(h.RowLabels, r.Code())
		h.Values = append(h.Values, e.Store.CategoryUsage(r))
	}
	return h
}

// Fig2Table renders the same matrix as a CSV-friendly table.
func (e *Env) Fig2Table() *report.Table {
	headers := []string{"Region"}
	for _, cat := range flavor.AllCategories() {
		headers = append(headers, cat.String())
	}
	t := report.NewTable("Fig 2 data: category usage fraction per region", headers...)
	regions := append(recipedb.MajorRegions(), recipedb.World)
	for _, r := range regions {
		usage := e.Store.CategoryUsage(r)
		cells := make([]interface{}, 0, len(usage)+1)
		cells = append(cells, r.Code())
		for _, u := range usage {
			cells = append(cells, u)
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig3aResult carries the recipe-size distribution of one region.
type Fig3aResult struct {
	Region recipedb.Region
	Mean   float64
	Mode   int
	Max    int
	// Sizes and PMF are the distribution support and probabilities;
	// CDF is cumulative (the paper's inset).
	Sizes []int
	PMF   []float64
	CDF   []float64
}

// Fig3a computes recipe-size distributions for every major region and
// WORLD (Fig 3a and its cumulative inset).
func (e *Env) Fig3a() []Fig3aResult {
	regions := append(recipedb.MajorRegions(), recipedb.World)
	out := make([]Fig3aResult, 0, len(regions))
	for _, r := range regions {
		h := e.Store.BuildCuisine(r).SizeHistogram()
		sizes, pmf := h.PMF()
		_, cdf := h.CDF()
		mode, _ := h.Mode()
		max := 0
		if len(sizes) > 0 {
			max = sizes[len(sizes)-1]
		}
		out = append(out, Fig3aResult{
			Region: r, Mean: h.Mean(), Mode: mode, Max: max,
			Sizes: sizes, PMF: pmf, CDF: cdf,
		})
	}
	return out
}

// Fig3aReport summarizes the size distributions (one row per region)
// and appends the WORLD PMF series.
func (e *Env) Fig3aReport() *report.Table {
	t := report.NewTable(
		"Fig 3a. Recipe size distribution (mean/mode/max per region; paper: bounded, thin-tailed, mean ≈ 9)",
		"Region", "MeanSize", "Mode", "Max", "P(size<=5)", "P(size<=10)", "P(size<=15)")
	for _, res := range e.Fig3a() {
		cdfAt := func(v int) float64 {
			last := 0.0
			for i, s := range res.Sizes {
				if s > v {
					break
				}
				last = res.CDF[i]
			}
			return last
		}
		t.AddRow(res.Region.Code(), res.Mean, res.Mode, res.Max,
			cdfAt(5), cdfAt(10), cdfAt(15))
	}
	return t
}

// Fig3bResult carries one region's normalized rank-frequency series.
type Fig3bResult struct {
	Region recipedb.Region
	// RankFreq[r] is frequency of rank r+1 normalized by rank 1.
	RankFreq []float64
	// CumShare[r] is the cumulative fraction of ingredient use covered
	// by the top r+1 ingredients (the paper's inset).
	CumShare []float64
	// Gini summarizes popularity concentration.
	Gini float64
}

// Fig3b computes ingredient rank-frequency curves per region (Fig 3b).
func (e *Env) Fig3b() []Fig3bResult {
	regions := append(recipedb.MajorRegions(), recipedb.World)
	out := make([]Fig3bResult, 0, len(regions))
	for _, r := range regions {
		freq := e.Store.BuildCuisine(r).FrequencyVector()
		out = append(out, Fig3bResult{
			Region:   r,
			RankFreq: stats.RankFrequency(freq),
			CumShare: stats.CumulativeShare(freq),
			Gini:     stats.Gini(freq),
		})
	}
	return out
}

// Fig3bReport samples the normalized rank-frequency curve at fixed
// ranks, one row per region, exposing the cross-cuisine scaling
// consistency the paper highlights.
func (e *Env) Fig3bReport() *report.Table {
	ranks := []int{1, 2, 5, 10, 20, 50, 100}
	headers := []string{"Region", "Gini"}
	for _, rk := range ranks {
		headers = append(headers, fmt.Sprintf("f(rank %d)", rk))
	}
	t := report.NewTable(
		"Fig 3b. Ingredient popularity rank-frequency, normalized by the most popular ingredient",
		headers...)
	for _, res := range e.Fig3b() {
		cells := []interface{}{res.Region.Code(), res.Gini}
		for _, rk := range ranks {
			if rk-1 < len(res.RankFreq) {
				cells = append(cells, res.RankFreq[rk-1])
			} else {
				cells = append(cells, "-")
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// TopIngredientsReport lists each region's most used ingredients, a
// companion view to Fig 3b's head.
func (e *Env) TopIngredientsReport(k int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Top %d ingredients per region by frequency of use", k),
		"Region", "Ingredients")
	for _, r := range recipedb.MajorRegions() {
		c := e.Store.BuildCuisine(r)
		top := c.TopIngredients(k)
		names := make([]string, len(top))
		for i, id := range top {
			names[i] = fmt.Sprintf("%s(%d)", e.Catalog.Ingredient(id).Name, c.Uses(id))
		}
		t.AddRow(r.Code(), joinComma(names))
	}
	return t
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
