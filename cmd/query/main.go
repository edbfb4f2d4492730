// Command query runs CQL statements against the synthetic corpus.
//
// Usage:
//
//	query [-scale f] [-seed s] "SELECT region, count(*) FROM recipes GROUP BY region"
//	query -i            # interactive: one statement per line on stdin
//	query -db DIR ...   # load the corpus from a storage snapshot (opened read-only)
//
// Interactive sessions accept meta commands alongside statements:
// ":stats" prints one unified view of the plan cache and the result
// cache. The same view is printed when the session ends.
//
// The grammar is documented in internal/query; examples:
//
//	SELECT name, size FROM recipes WHERE region = 'ITA' AND has('garlic') ORDER BY size DESC LIMIT 10
//	SELECT region, count(*), avg(score) FROM recipes GROUP BY region ORDER BY avg(score) DESC
//	SELECT name FROM recipes WHERE category('Spice') >= 4 AND NOT has('salt') LIMIT 5
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
	"culinary/internal/synth"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.25, "corpus scale factor")
		seed        = flag.Uint64("seed", 20180416, "master seed")
		interactive = flag.Bool("i", false, "read one statement per line from stdin")
		dbDir       = flag.String("db", "", "load the corpus from a storage snapshot directory")
	)
	flag.Parse()
	if !*interactive && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "query: need a statement argument or -i; see -help")
		os.Exit(2)
	}

	t0 := time.Now()
	var catalog *flavor.Catalog
	var store *recipedb.Store
	var analyzer *pairing.Analyzer
	if *dbDir != "" {
		// Read-only: the directory may belong to a running server, and a
		// second read-write open would truncate its active segment.
		db, err := storage.Open(*dbDir, storage.Options{ReadOnly: true})
		if err != nil {
			fatal(err)
		}
		cfg, err := storage.LoadCatalogConfig(db)
		if err != nil {
			db.Close()
			fatal(err)
		}
		catalog, err = flavor.Build(cfg)
		if err != nil {
			db.Close()
			fatal(err)
		}
		analyzer = pairing.NewAnalyzer(catalog)
		store, err = storage.LoadCorpus(db, catalog)
		db.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		fcfg := flavor.DefaultConfig()
		fcfg.Seed = *seed
		var err error
		catalog, err = flavor.Build(fcfg)
		if err != nil {
			fatal(err)
		}
		analyzer = pairing.NewAnalyzer(catalog)
		scfg := synth.DefaultConfig()
		scfg.Seed = *seed
		scfg.Scale = *scale
		store, err = synth.Generate(analyzer, scfg)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "corpus: %d recipes (built in %v)\n",
		store.Len(), time.Since(t0).Round(time.Millisecond))
	engine := query.NewEngine(store, analyzer)
	engine.EnableResultCache(query.DefaultResultCacheBytes)

	if !*interactive {
		run(engine, strings.Join(flag.Args(), " "))
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(os.Stderr, "cql> ")
	for sc.Scan() {
		stmt := strings.TrimSpace(sc.Text())
		switch {
		case stmt == "" || strings.HasPrefix(stmt, "--"):
		case strings.HasPrefix(stmt, ":"):
			metaCommand(engine, stmt)
		default:
			run(engine, stmt)
		}
		fmt.Fprint(os.Stderr, "cql> ")
	}
	// Repeated dashboard statements skip Parse+bind via the plan cache
	// and — when the result cache is on — the corpus scan entirely;
	// report how often both paid off for this session.
	fmt.Fprintf(os.Stderr, "\n%s", formatStats(engine.CacheStats(), engine.ResultCacheStats()))
}

// metaCommand handles ":"-prefixed interactive commands.
func metaCommand(engine *query.Engine, cmd string) {
	switch cmd {
	case ":stats":
		fmt.Fprint(os.Stderr, formatStats(engine.CacheStats(), engine.ResultCacheStats()))
	default:
		fmt.Fprintf(os.Stderr, "query: unknown command %s (try :stats)\n", cmd)
	}
}

// formatStats renders the unified cache view the interactive ":stats"
// command and the session summary share: one line per cache tier.
func formatStats(plan query.CacheStats, res query.ResultCacheStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan cache:   %d hits, %d misses, %d entries (cap %d)\n",
		plan.Hits, plan.Misses, plan.Entries, plan.Capacity)
	if !res.Enabled {
		b.WriteString("result cache: disabled\n")
		return b.String()
	}
	fmt.Fprintf(&b, "result cache: %d hits, %d misses, %d entries, %d/%d bytes, %d evicted, %d invalidated, %d rejected, %d first sight\n",
		res.Hits, res.Misses, res.Entries, res.Bytes, res.Capacity, res.Evicted, res.Invalidated, res.Rejected, res.FirstSight)
	return b.String()
}

// run executes one statement, printing the result table or the error
// without exiting (so interactive sessions survive typos).
func run(engine *query.Engine, stmt string) {
	t0 := time.Now()
	res, err := engine.Run(stmt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "query:", err)
		return
	}
	title := fmt.Sprintf("%d rows (scanned %d recipes in %v)",
		len(res.Rows), res.Scanned, time.Since(t0).Round(time.Microsecond))
	if err := res.Table(title).Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "query:", err)
	os.Exit(1)
}
