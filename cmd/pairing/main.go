// Command pairing runs the food-pairing analysis for one region or all
// regions: observed flavor sharing, null-model moments, Z-scores, and
// optionally the top contributing ingredients.
//
// Usage:
//
//	pairing [-region CODE] [-model name] [-null n] [-top k] [-scale f] [-seed s]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"culinary/internal/experiments"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/report"
	"culinary/internal/rng"
)

func main() {
	var (
		regionCode = flag.String("region", "", "region code (e.g. ITA); empty = all 22")
		modelName  = flag.String("model", "Random", "null model: Random, Frequency, Category, Frequency+Category")
		null       = flag.Int("null", 100000, "randomized recipes per model")
		top        = flag.Int("top", 0, "also print the top-k contributing ingredients")
		scale      = flag.Float64("scale", 1.0, "corpus scale factor")
		seed       = flag.Uint64("seed", 20180416, "master seed")
	)
	flag.Parse()

	model, err := pairing.ParseModel(*modelName)
	if err != nil {
		fatal(err)
	}

	t0 := time.Now()
	env, err := experiments.NewEnv(experiments.Options{
		Scale: *scale, NullRecipes: *null, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "environment ready in %v\n", time.Since(t0).Round(time.Millisecond))

	regions := recipedb.MajorRegions()
	if *regionCode != "" {
		r, err := recipedb.ParseRegion(*regionCode)
		if err != nil {
			fatal(err)
		}
		regions = []recipedb.Region{r}
	}
	if err := analyze(os.Stdout, env, regions, model, *top); err != nil {
		fatal(err)
	}
}

// analyze writes the regions' Z table and, for top > 0, each region's
// contributor table. The comparisons run one task per region on a
// bounded worker set; every region draws from its own stream, split off
// the seed by region, so the output is the same for any worker count.
func analyze(w io.Writer, env *experiments.Env, regions []recipedb.Region, model pairing.Model, top int) error {
	cuisines := make([]*recipedb.Cuisine, len(regions))
	results := make([]pairing.Result, len(regions))
	errs := make([]error, len(regions))
	pairing.ForEachTask(len(regions), func(i int) {
		c := env.Store.BuildCuisine(regions[i])
		cuisines[i] = c
		src := rng.New(env.Seed).Split(0x9000 + uint64(regions[i]))
		results[i], errs[i] = pairing.Compare(env.Analyzer, env.Store, c, model, env.NullRecipes, src)
	})
	t := report.NewTable(
		fmt.Sprintf("Food pairing vs %s model (%d random recipes)", model, env.NullRecipes),
		"Region", "N̄s", "NullMean", "NullStd", "Z")
	for i, r := range regions {
		if errs[i] != nil {
			return errs[i]
		}
		res := results[i]
		t.AddRow(r.Code(), res.Observed, res.NullMean, res.NullStd,
			fmt.Sprintf("%+.1f", res.Z))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	if top <= 0 {
		return nil
	}
	for i, r := range regions {
		contribs := env.Analyzer.ContributionsParallel(env.Store, cuisines[i], 0)
		sign := contributorSign(results[i].Z, r)
		tc := report.NewTable(
			fmt.Sprintf("Top %d contributors for %s", top, r.Code()),
			"Ingredient", "Freq", "ΔN̄s% on removal")
		for _, ct := range pairing.TopContributors(contribs, top, sign) {
			tc.AddRow(ct.Name, ct.Freq, fmt.Sprintf("%+.2f", ct.DeltaPct))
		}
		fmt.Fprintln(w)
		if err := tc.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// contributorSign is the pairing direction the contributor table ranks
// for: the sign of the Z just printed, as experiments.Fig5 uses, so the
// two tables agree even where the measurement departs from the paper.
// The paper's sign decides only at Z = 0, and a region it reports no
// sign for ranks as positive.
func contributorSign(z float64, r recipedb.Region) int {
	switch {
	case z > 0:
		return 1
	case z < 0:
		return -1
	case r.PairingSign() != 0:
		return r.PairingSign()
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pairing:", err)
	os.Exit(1)
}
