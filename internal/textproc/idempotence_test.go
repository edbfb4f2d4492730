package textproc_test

import (
	"reflect"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/textproc"
)

// TestNormalizeIsIdempotent pins what lets a caller hand Tokenize raw
// text: Tokenize normalizes its input itself, and normalizing twice is
// normalizing once. internal/search used to call
// Tokenize(Normalize(text)); it now calls Tokenize(text), and the index
// bytes may not move — so the equivalence is checked over everything
// the index tokenizes (catalog names and synonyms, the recipe names of
// the TestOptions corpus) and over inputs chosen to break it.
func TestNormalizeIsIdempotent(t *testing.T) {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputs := env.Catalog.AllNames()
	for id := 0; id < env.Store.Slots(); id++ {
		inputs = append(inputs, env.Store.Recipe(id).Name)
	}
	inputs = append(inputs,
		"", " ", "'", "''", "' '", "'za'atar'", "''rock'n'roll''", "chef's' 'special",
		"1/2", "1/2 cup", "3.5oz", "½ cup", "²³", "٣ تفاح",
		"CRÈME Fraîche", "İstanbul KEBABI", "ǅuveč", "ΣΊΣΥΦΟΣ", "STRASSE straße", "ŉ ǰ ΐ",
		"!!!", "...---...", "a--b__c  d\t\ne", "salt & pepper; (to taste)", "nbsp\u00a0here", "e\u0301clair", "\u0307'",
		"'-'x'-'", "x'", "'x", "\x80\xff bad utf8", "日本 料理",
	)
	for _, s := range inputs {
		once := textproc.Normalize(s)
		if twice := textproc.Normalize(once); twice != once {
			t.Errorf("Normalize(Normalize(%q)) = %q, Normalize = %q", s, twice, once)
		}
		if got, want := textproc.Tokenize(once), textproc.Tokenize(s); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokenize(Normalize(%q)) = %q, Tokenize = %q", s, got, want)
		}
	}
}
