// Example querylab demonstrates slicing the culinary database with CQL,
// the library's SQL-like query language, and persisting the corpus with
// the embedded storage engine. It answers the kind of ad-hoc questions
// the paper's analyses start from: which cuisines are largest, where
// garlic shows up, which recipes are the most spice-dense, and how
// pairing scores differ per region.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/storage"
	"culinary/internal/synth"
)

func main() {
	// Build a small corpus (10% scale keeps this example under a few
	// seconds) and a query engine over it.
	catalog, err := flavor.Build(flavor.DefaultConfig())
	check(err)
	analyzer := pairing.NewAnalyzer(catalog)
	cfg := synth.DefaultConfig()
	cfg.Scale = 0.1
	store, err := synth.Generate(analyzer, cfg)
	check(err)
	engine := query.NewEngine(store, analyzer)

	statements := []string{
		// Table 1 in one statement: corpus size per region.
		`SELECT region, count(*), avg(size) FROM recipes GROUP BY region ORDER BY count(*) DESC LIMIT 8`,
		// Where does garlic appear, and how large are those recipes?
		`SELECT region, count(*) FROM recipes WHERE has('garlic') GROUP BY region ORDER BY count(*) DESC LIMIT 5`,
		// The most spice-dense Indian recipes.
		`SELECT name, size FROM recipes WHERE region = 'INSC' AND category('Spice') >= 4 ORDER BY size DESC LIMIT 5`,
		// Mean flavor-sharing per cuisine — the raw material of Fig 4.
		`SELECT region, avg(score) FROM recipes GROUP BY region ORDER BY avg(score) DESC LIMIT 8`,
		// Large recipes that avoid both salt and sugar.
		`SELECT name, region, size FROM recipes WHERE size >= 12 AND NOT has('salt') AND NOT has('sugar') LIMIT 5`,
	}
	for _, stmt := range statements {
		fmt.Printf("cql> %s\n", stmt)
		res, err := engine.Run(stmt)
		check(err)
		check(res.Table(fmt.Sprintf("%d rows, scanned %d recipes", len(res.Rows), res.Scanned)).Render(os.Stdout))
		fmt.Println()
	}

	// Persist the corpus with the embedded storage engine and read one
	// recipe back — the durable path the HTTP server uses with -db.
	dir := filepath.Join(os.TempDir(), "culinarydb-example")
	defer os.RemoveAll(dir)
	db, err := storage.Open(dir, storage.Options{})
	check(err)
	defer db.Close()
	check(storage.SaveCorpus(db, store))
	st := db.Stats()
	fmt.Printf("persisted snapshot: a %d-byte checkpoint at version %d\n",
		st.CheckpointBytes, st.CheckpointVersion)

	loaded, err := storage.LoadCorpus(db, catalog)
	check(err)
	fmt.Printf("reloaded %d recipes; recipe 0 = %q\n", loaded.Len(), loaded.Recipe(0).Name)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "querylab:", err)
		os.Exit(1)
	}
}
