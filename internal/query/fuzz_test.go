package query

import "testing"

// fuzzSeedStatements are FuzzParseStatement's inline seeds. The
// equivalence property test replays every parseable one against a
// long-lived and a fresh engine, so the statements the fuzzer anchors
// on are exactly the ones engine reuse must never corrupt.
var fuzzSeedStatements = []string{
	"SELECT * FROM recipes",
	"select count(*) from recipes",
	"EXPLAIN SELECT id, name FROM recipes WHERE region = 'ITA' LIMIT 5",
	"SELECT region, count(*), avg(size) FROM recipes GROUP BY region ORDER BY count(*) DESC LIMIT 10",
	"SELECT name FROM recipes WHERE has('garlic') AND NOT (size < 3 OR score >= 0.5)",
	"SELECT id FROM recipes WHERE category('spice') > 2 AND name LIKE 'ragu'",
	"SELECT id FROM recipes WHERE region IN ('ITA', 'FRA') AND size NOT IN (1, 2, 3.5)",
	"SELECT name FROM recipes WHERE name = 'it''s' OR source != \"web\"",
	"SELECT size FROM recipes WHERE size <> 4 ORDER BY size ASC",
	"SELECT * FROM recipes WHERE true",
	"SELECT * FROM nowhere",
	"SELECT FROM recipes",
	"SELECT * FROM recipes WHERE (",
	"SELECT * FROM recipes LIMIT 99999999999999999999",
	"SELECT * FROM recipes WHERE name = 'unterminated",
	"\x00\xff!<",
}

// FuzzParseStatement asserts two properties over arbitrary statement
// text: the parser never panics, and for every statement it accepts,
// printing is canonical — Parse(q.String()) succeeds and reprints to
// the same text (print∘parse is a fixpoint). Together they guarantee
// the AST and its textual form cannot drift, which the HTTP query
// endpoint depends on.
func FuzzParseStatement(f *testing.F) {
	for _, s := range fuzzSeedStatements {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input) // must never panic
		if err != nil {
			return
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form of %q does not re-parse: %q: %v", input, printed, err)
		}
		if again := q2.String(); again != printed {
			t.Fatalf("print is not canonical for %q: %q -> %q", input, printed, again)
		}
	})
}
