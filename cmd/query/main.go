// Command query runs CQL statements against the synthetic corpus.
//
// Usage:
//
//	query [-scale f] [-seed s] "SELECT region, count(*) FROM recipes GROUP BY region"
//	query -i            # interactive: one statement per line on stdin
//	query -db DIR ...   # load the corpus from a storage snapshot (opened read-only)
//
// An interactive session skips blank lines and "--" comments; every
// other line is a statement, parsed and run afresh.
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
	"io"
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
		// read-only open writes nothing.
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

	if !*interactive {
		run(engine, strings.Join(flag.Args(), " "), os.Stdout, os.Stderr)
		return
	}
	interact(engine, os.Stdin, os.Stdout, os.Stderr)
}

// interact runs one statement per line of in: result tables go to out,
// prompts and errors to errw.
func interact(engine *query.Engine, in io.Reader, out, errw io.Writer) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Fprint(errw, "cql> ")
	for sc.Scan() {
		if stmt := strings.TrimSpace(sc.Text()); stmt != "" && !strings.HasPrefix(stmt, "--") {
			run(engine, stmt, out, errw)
		}
		fmt.Fprint(errw, "cql> ")
	}
	fmt.Fprintln(errw)
}

// run executes one statement, printing the result table or the error
// without exiting (so interactive sessions survive typos). Every engine
// error already reads "query: ...", so it is printed as it is.
func run(engine *query.Engine, stmt string, out, errw io.Writer) {
	t0 := time.Now()
	res, err := engine.Run(stmt)
	if err != nil {
		fmt.Fprintln(errw, err)
		return
	}
	title := fmt.Sprintf("%d rows (scanned %d recipes in %v)",
		len(res.Rows), res.Scanned, time.Since(t0).Round(time.Microsecond))
	if err := res.Table(title).Render(out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "query:", err)
	os.Exit(1)
}
