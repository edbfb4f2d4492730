package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/report"
	"culinary/internal/rng"
	"culinary/internal/stats"
)

// Fig4Row is one cuisine's food-pairing comparison: the real cuisine and
// each randomized model expressed as Z-scores against the Random
// control (Fig 4).
type Fig4Row struct {
	Region recipedb.Region
	// Observed is the cuisine's mean flavor sharing N̄s.
	Observed float64
	// RandomMean and RandomStd are the Random control's moments.
	RandomMean, RandomStd float64
	// ZCuisine is the real cuisine's Z against the Random control.
	ZCuisine float64
	// ZModel[m] is model m's mean score expressed as a Z against the
	// Random control (ZModel[RandomModel] ≈ 0 by construction).
	ZModel [pairing.NumModels]float64
	// ModelMean[m] is model m's mean pairing score.
	ModelMean [pairing.NumModels]float64
	// PaperSign is the direction the paper reports for this cuisine.
	PaperSign int
}

// Fig4 runs the full food-pairing analysis: for every major region, the
// real cuisine and the four randomized models, each sampled with
// e.NullRecipes recipes, all referenced to the Random control.
func (e *Env) Fig4() ([]Fig4Row, error) {
	return e.fig4(recipedb.MajorRegions())
}

// Fig4Region runs the Fig 4 analysis for a single region.
func (e *Env) Fig4Region(r recipedb.Region) (Fig4Row, error) {
	rows, err := e.fig4([]recipedb.Region{r})
	if err != nil {
		return Fig4Row{}, err
	}
	return rows[0], nil
}

// fig4Order is the order a region's four controls are queued in,
// costliest first (their draws cost about 2.8 : 2.4 : 1.7 : 1.2), so two
// workers sharing one region finish together instead of one of them
// drawing the costliest control alone at the end.
var fig4Order = [pairing.NumModels]pairing.Model{
	pairing.FrequencyCategoryModel, pairing.FrequencyModel, pairing.CategoryModel, pairing.RandomModel,
}

// fig4Stream[m] labels the stream of model m's control under the
// region's source. The goldens pin this layout; label 1 is unused.
var fig4Stream = [pairing.NumModels]uint64{
	pairing.RandomModel: 0, pairing.FrequencyModel: 2, pairing.CategoryModel: 3, pairing.FrequencyCategoryModel: 4,
}

// fig4Cuisine is one region's share of a Fig 4 run: what the first of
// its tasks to start sets up for all four, and what each task leaves for
// the row.
type fig4Cuisine struct {
	setup    sync.Once
	err      error
	observed float64
	src      *rng.Source
	// pool is dropped by the last task to take it, so a sweep holds about
	// one pool per worker, not one per region.
	pool  *pairing.NullPool
	taken atomic.Int32
	// mean, std and n are each control's moments and scored draws.
	mean, std [pairing.NumModels]float64
	n         [pairing.NumModels]int
	errs      [pairing.NumModels]error
}

// fig4 computes the regions' rows as len(regions)×4 independent
// (region, model) tasks on one bounded worker set, so a sweep is not
// bounded by its largest region and a single region still uses the
// CPUs. Every control draws from its own stream, split off the region's
// source, and a split consumes nothing from its parent, so the rows are
// bit-identical to running the tasks one after the other, whatever the
// worker count or schedule.
func (e *Env) fig4(regions []recipedb.Region) ([]Fig4Row, error) {
	cuisines := make([]fig4Cuisine, len(regions))
	pairing.ForEachTask(len(regions)*pairing.NumModels, func(task int) {
		i, m := task/pairing.NumModels, fig4Order[task%pairing.NumModels]
		fc := &cuisines[i]
		fc.setup.Do(func() { fc.err = e.fig4Setup(fc, regions[i]) })
		if fc.err != nil {
			return
		}
		// The task allocates the state its draws write — stream and
		// sampler scratch — itself: allocated together by the setup, two
		// workers' 16-byte streams would share a cache line.
		s, err := fc.pool.Sampler(m, fc.src.Split(fig4Stream[m]))
		if int(fc.taken.Add(1)) == pairing.NumModels {
			fc.pool = nil
		}
		if err != nil {
			fc.errs[m] = err
			return
		}
		fc.mean[m], fc.std[m], fc.n[m] = s.NullMoments(e.NullRecipes)
	})
	rows := make([]Fig4Row, len(regions))
	for i := range cuisines {
		fc, r := &cuisines[i], regions[i]
		if fc.err != nil {
			return nil, fc.err
		}
		rMean, rStd, rN := fc.mean[pairing.RandomModel], fc.std[pairing.RandomModel], fc.n[pairing.RandomModel]
		row := Fig4Row{
			Region:     r,
			Observed:   fc.observed,
			RandomMean: rMean,
			RandomStd:  rStd,
			ModelMean:  fc.mean,
			PaperSign:  r.PairingSign(),
		}
		for _, m := range pairing.AllModels() {
			if fc.errs[m] != nil {
				return nil, fc.errs[m]
			}
			// A control that scored nothing has no moments to compare with.
			if fc.n[m] == 0 {
				return nil, fmt.Errorf("experiments: model %s produced no scorable recipes for %s", m, r.Code())
			}
			if m != pairing.RandomModel { // the control's own Z is 0 by construction
				row.ZModel[m] = stats.ZScore(fc.mean[m], rMean, rStd, rN)
			}
		}
		row.ZCuisine = stats.ZScore(fc.observed, rMean, rStd, rN)
		rows[i] = row
	}
	return rows, nil
}

// fig4Setup fills in what the four tasks of region r share.
func (e *Env) fig4Setup(fc *fig4Cuisine, r recipedb.Region) error {
	c := e.Store.BuildCuisine(r)
	var scored int
	if fc.observed, scored = e.Analyzer.CuisineScore(e.Store, c); scored == 0 {
		return fmt.Errorf("experiments: region %s has no scorable recipes", r.Code())
	}
	fc.src = e.src(0x40 + uint64(r))
	var err error
	fc.pool, err = pairing.NewNullPool(e.Analyzer, e.Store, c)
	return err
}

// Fig4Report renders the per-cuisine Z table.
func (e *Env) Fig4Report(rows []Fig4Row) *report.Table {
	t := report.NewTable(
		"Fig 4. Food pairing Z-scores vs the Random control (paper: 16 positive, 6 negative cuisines; Frequency model reproduces the pattern, Category model does not)",
		"Region", "N̄s", "RandMean", "Z(cuisine)", "Z(Frequency)", "Z(Category)", "Z(Freq+Cat)", "Sign", "PaperSign")
	for _, row := range rows {
		sign := "0"
		if row.ZCuisine > 0 {
			sign = "+"
		} else if row.ZCuisine < 0 {
			sign = "-"
		}
		paperSign := "+"
		if row.PaperSign < 0 {
			paperSign = "-"
		}
		t.AddRow(row.Region.Code(), row.Observed, row.RandomMean,
			fmt.Sprintf("%+.1f", row.ZCuisine),
			fmt.Sprintf("%+.1f", row.ZModel[pairing.FrequencyModel]),
			fmt.Sprintf("%+.1f", row.ZModel[pairing.CategoryModel]),
			fmt.Sprintf("%+.1f", row.ZModel[pairing.FrequencyCategoryModel]),
			sign, paperSign)
	}
	return t
}

// Fig4Chart renders the cuisines' Z-scores as a bar chart around zero.
func (e *Env) Fig4Chart(rows []Fig4Row) *report.BarChart {
	chart := &report.BarChart{
		Title: "Fig 4. Food pairing Z-score per cuisine (vs Random control)",
		Width: 30,
	}
	for _, row := range rows {
		chart.Labels = append(chart.Labels, row.Region.Code())
		chart.Values = append(chart.Values, row.ZCuisine)
	}
	return chart
}

// Fig5Row lists one cuisine's top contributing ingredients (Fig 5).
type Fig5Row struct {
	Region recipedb.Region
	Sign   int
	Top    []pairing.Contribution
}

// Fig5 computes the top-k contributing ingredients for every major
// region, split by the cuisine's observed pairing direction. zSigns maps
// each region to the sign of its Fig 4 Z-score (pass the Fig4 output);
// if a region is missing its paper sign is used.
func (e *Env) Fig5(k int, fig4 []Fig4Row) []Fig5Row {
	signOf := make(map[recipedb.Region]int, len(fig4))
	for _, row := range fig4 {
		s := 0
		if row.ZCuisine > 0 {
			s = 1
		} else if row.ZCuisine < 0 {
			s = -1
		}
		signOf[row.Region] = s
	}
	out := make([]Fig5Row, 0, recipedb.NumMajorRegions)
	for _, r := range recipedb.MajorRegions() {
		sign, ok := signOf[r]
		if !ok || sign == 0 {
			sign = r.PairingSign()
		}
		c := e.Store.BuildCuisine(r)
		// Bit-identical to the serial sweep; see ContributionsParallel.
		contribs := e.Analyzer.ContributionsParallel(e.Store, c, 0)
		out = append(out, Fig5Row{
			Region: r,
			Sign:   sign,
			Top:    pairing.TopContributors(contribs, k, sign),
		})
	}
	return out
}

// Fig5Report renders the positive-pairing (a) and negative-pairing (b)
// contributor tables.
func (e *Env) Fig5Report(rows []Fig5Row) (positive, negative *report.Table) {
	positive = report.NewTable(
		"Fig 5(a). Top ingredients contributing to positive food pairing",
		"Region", "Ingredients (ΔN̄s% on removal)")
	negative = report.NewTable(
		"Fig 5(b). Top ingredients contributing to negative food pairing",
		"Region", "Ingredients (ΔN̄s% on removal)")
	for _, row := range rows {
		var cells []string
		for _, c := range row.Top {
			cells = append(cells, fmt.Sprintf("%s(%+.1f%%)", c.Name, c.DeltaPct))
		}
		line := joinComma(cells)
		if row.Sign >= 0 {
			positive.AddRow(row.Region.Code(), line)
		} else {
			negative.AddRow(row.Region.Code(), line)
		}
	}
	return positive, negative
}
