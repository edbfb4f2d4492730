package query

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// loadFuzzCorpusStatements reads the committed FuzzParseStatement seed
// corpus (testdata/fuzz/FuzzParseStatement/*): every historical fuzzer
// finding, in Go's "go test fuzz v1" file format.
func loadFuzzCorpusStatements(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzParseStatement")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading seed corpus: %v", err)
	}
	var out []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: unquoting %q: %v", ent.Name(), line, err)
			}
			out = append(out, s)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatal("seed corpus is empty")
	}
	return out
}

// generatedPropertyStatements renders the same deterministic predicate
// family the quick.Check property tests draw from, wrapped in the
// executor shapes the engine distinguishes (scan, aggregate, group-by,
// order-by, explain).
func generatedPropertyStatements() []string {
	var out []string
	for sizeOp := uint8(0); sizeOp < 6; sizeOp++ {
		for _, sizeVal := range []uint8{0, 4, 9} {
			for _, withRegion := range []bool{false, true} {
				pred := randomPredicate(sizeOp, sizeVal, withRegion, sizeVal*7)
				out = append(out,
					"SELECT id, name, size FROM recipes WHERE "+pred,
					"SELECT count(*), avg(size), min(size), max(size) FROM recipes WHERE "+pred,
					"SELECT region, count(*) FROM recipes WHERE "+pred+" GROUP BY region",
				)
			}
		}
	}
	out = append(out,
		"SELECT id, size FROM recipes ORDER BY size DESC LIMIT 17",
		"SELECT name FROM recipes WHERE has('garlic') AND NOT has('salt') LIMIT 9",
		"EXPLAIN SELECT id FROM recipes WHERE region = 'ITA' AND has('garlic')",
		"SELECT source, count(*) FROM recipes GROUP BY source ORDER BY count(*) DESC",
	)
	return out
}

// resultFingerprint serializes a Result to canonical bytes so
// "byte-identical" is literal.
func resultFingerprint(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(res); err != nil {
		t.Fatalf("encoding result: %v", err)
	}
	return buf.Bytes()
}

// TestEquivalenceCachedVsUncached is the engine-reuse correctness
// battery: for every statement in the committed fuzz seed corpus, the
// inline fuzz seeds and the generated property statements, one engine
// kept warm across the whole test must return byte-identical Results
// to a fresh engine per statement — across interleaved corpus
// mutations, each of which bumps the version. Each statement runs twice
// per round on the warm engine: no state an engine kept between runs,
// and no two statements that differ only inside a string literal, may
// change an answer.
func TestEquivalenceCachedVsUncached(t *testing.T) {
	cached, store := newMutableEngine(t)
	plain := func() *Engine { return NewEngine(store, cached.analyzer) }

	statements := append([]string{}, fuzzSeedStatements...)
	statements = append(statements, loadFuzzCorpusStatements(t)...)
	statements = append(statements, generatedPropertyStatements()...)
	// Pairs that differ only inside a string literal: each statement of
	// a pair has its own answer.
	statements = append(statements,
		"SELECT count(*) FROM recipes WHERE has('chicken stock')",
		"SELECT count(*) FROM recipes WHERE has('chicken  stock')",
		"SELECT id FROM recipes WHERE name = 'revived dish'",
		"SELECT id FROM recipes WHERE name = 'revived  dish'",
	)

	garlic, ok := store.Catalog().Lookup("garlic")
	if !ok {
		t.Fatal("catalog missing garlic")
	}
	tomato, ok := store.Catalog().Lookup("tomato")
	if !ok {
		t.Fatal("catalog missing tomato")
	}
	mutations := []func() error{
		func() error { // insert
			_, _, _, err := store.Upsert(-1, "equivalence pizza", recipedb.Italy, recipedb.AllRecipes,
				[]flavor.ID{garlic, tomato})
			return err
		},
		func() error { // delete
			_, err := store.Remove(1)
			return err
		},
		func() error { // replace: move recipe 2 to another region
			rec := store.Recipe(2)
			_, _, _, err := store.Upsert(2, rec.Name+" (moved)", recipedb.France, rec.Source, rec.Ingredients)
			return err
		},
		func() error { // revive the deleted slot
			_, _, _, err := store.Upsert(1, "revived dish", recipedb.Japan, recipedb.AllRecipes,
				[]flavor.ID{garlic, tomato})
			return err
		},
	}

	countBefore := runCount(t, plain())
	for round := 0; ; round++ {
		for _, stmt := range statements {
			want, wantErr := plain().Run(stmt)
			for pass := 0; pass < 2; pass++ {
				got, gotErr := cached.Run(stmt)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("round %d stmt %q pass %d: err %v vs %v", round, stmt, pass, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if !bytes.Equal(resultFingerprint(t, got), resultFingerprint(t, want)) {
					t.Fatalf("round %d stmt %q pass %d:\nwarm  %s\nfresh %s",
						round, stmt, pass, resultFingerprint(t, got), resultFingerprint(t, want))
				}
				if got.Version != store.Version() {
					t.Fatalf("round %d stmt %q: result version %d, corpus %d",
						round, stmt, got.Version, store.Version())
				}
			}
		}
		if round == len(mutations) {
			break
		}
		v := store.Version()
		if err := mutations[round](); err != nil {
			t.Fatalf("mutation %d: %v", round, err)
		}
		if store.Version() != v+1 {
			t.Fatalf("mutation %d bumped version %d -> %d", round, v, store.Version())
		}
	}

	// The mutations must have been visible: net one insert (insert +
	// delete + replace + revive) relative to the starting corpus.
	if got := runCount(t, plain()); got != countBefore+1 {
		t.Errorf("final count(*) = %d, want %d", got, countBefore+1)
	}
}

// runCount executes count(*) and returns the value.
func runCount(t *testing.T, e *Engine) int64 {
	t.Helper()
	res, err := e.Run("SELECT count(*) FROM recipes")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int
}
