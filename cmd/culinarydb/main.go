// Command culinarydb builds the synthetic CulinaryDB corpus and exports,
// summarizes, or persists it.
//
// Usage:
//
//	culinarydb -out corpus.csv [-format csv|json] [-scale f] [-seed s]
//	culinarydb -stats [-region CODE]
//	culinarydb -savedb DIR              # persist a storage-engine snapshot
//	culinarydb -dbinfo DIR              # inspect a snapshot directory (opened read-only)
//
// CQL statements against the corpus are cmd/query's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/report"
	"culinary/internal/stats"
	"culinary/internal/storage"
	"culinary/internal/synth"
)

func main() {
	var (
		out    = flag.String("out", "", "output file for corpus export ('-' for stdout)")
		format = flag.String("format", "csv", "export format: csv or json")
		scale  = flag.Float64("scale", 1.0, "corpus scale factor")
		seed   = flag.Uint64("seed", 20180416, "master seed")
		stats  = flag.Bool("stats", false, "print per-region statistics instead of exporting")
		region = flag.String("region", "", "restrict -stats to one region code")
		savedb = flag.String("savedb", "", "persist the corpus into a storage snapshot directory")
		dbinfo = flag.String("dbinfo", "", "print statistics of a snapshot directory and exit")
	)
	flag.Parse()

	if *dbinfo != "" {
		printDBInfo(*dbinfo)
		return
	}
	if *out == "" && !*stats && *savedb == "" {
		fmt.Fprintln(os.Stderr, "culinarydb: need -out FILE, -stats, -savedb DIR or -dbinfo DIR; see -help")
		os.Exit(2)
	}

	t0 := time.Now()
	fcfg := flavor.DefaultConfig()
	fcfg.Seed = *seed
	catalog, err := flavor.Build(fcfg)
	if err != nil {
		fatal(err)
	}
	analyzer := pairing.NewAnalyzer(catalog)
	scfg := synth.DefaultConfig()
	scfg.Seed = *seed
	scfg.Scale = *scale
	store, err := synth.Generate(analyzer, scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d recipes in %v\n",
		store.Len(), time.Since(t0).Round(time.Millisecond))

	if *savedb != "" {
		db, err := storage.Open(*savedb, storage.Options{})
		if err != nil {
			fatal(err)
		}
		if err := storage.SaveCorpus(db, store); err != nil {
			db.Close()
			fatal(err)
		}
		st := db.Stats()
		if err := db.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "saved %d recipes at version %d (a %d-byte checkpoint) to %s\n",
			store.Len(), st.CheckpointVersion, st.CheckpointBytes, *savedb)
		if *out == "" && !*stats {
			return
		}
	}

	if *stats {
		printStats(store, *region)
		return
	}

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer w.Close()
	}
	switch *format {
	case "csv":
		err = store.WriteCSV(w)
	case "json":
		err = store.WriteJSON(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
}

func printStats(store *recipedb.Store, regionCode string) {
	regions := recipedb.MajorRegions()
	if regionCode != "" {
		r, err := recipedb.ParseRegion(regionCode)
		if err != nil {
			fatal(err)
		}
		regions = []recipedb.Region{r}
	}
	t := report.NewTable("Corpus statistics",
		"Region", "Recipes", "UniqueIngredients", "MeanSize", "Gini")
	for _, r := range regions {
		c := store.BuildCuisine(r)
		h := c.SizeHistogram()
		t.AddRow(r.Code(), c.NumRecipes(), c.NumUniqueIngredients(), h.Mean(),
			giniOf(c))
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func giniOf(c *recipedb.Cuisine) float64 {
	return stats.Gini(c.FrequencyVector())
}

// printDBInfo summarizes a snapshot directory: the checkpoint and the
// log after it, the recorded catalog configuration and the corpus they
// load to. The directory may belong to a running server, so it is
// opened read-only, which writes nothing (internal/storage/README.md).
func printDBInfo(dir string) {
	db, err := storage.Open(dir, storage.Options{ReadOnly: true})
	if err != nil {
		fatal(err)
	}
	defer db.Close()
	st := db.Stats()
	fmt.Printf("snapshot %s: checkpoint at version %d (%d bytes), log %d bytes in %d records\n",
		dir, st.CheckpointVersion, st.CheckpointBytes, st.LogBytes, st.LogRecords)
	cfg, err := storage.LoadCatalogConfig(db)
	if err != nil {
		fmt.Println("no corpus snapshot metadata:", err)
		return
	}
	fmt.Printf("catalog: seed=%d molecules=%d themes=%d\n",
		cfg.Seed, cfg.NumMolecules, cfg.NumThemes)
	catalog, err := flavor.Build(cfg)
	if err != nil {
		fatal(err)
	}
	corpus, err := storage.LoadCorpus(db, catalog)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("recipes: %d at version %d\n", corpus.Len(), corpus.Version())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "culinarydb:", err)
	os.Exit(1)
}
