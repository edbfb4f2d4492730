package alias

import (
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/synth"
)

var testCatalog = func() *flavor.Catalog {
	c, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return c
}()

func lookup(t *testing.T, name string) flavor.ID {
	t.Helper()
	id, ok := testCatalog.Lookup(name)
	if !ok {
		t.Fatalf("catalog missing %q", name)
	}
	return id
}

func TestResolvePaperExample(t *testing.T) {
	a := New(testCatalog)
	// The phrase the paper uses as its worked example.
	m := a.Resolve("2 jalapeno peppers, roasted and slit")
	if m.Status != Matched {
		t.Fatalf("status = %s, residual %v", m.Status, m.Residual)
	}
	if m.Ingredient != lookup(t, "jalapeno") {
		t.Fatalf("matched %q", testCatalog.Ingredient(m.Ingredient).Name)
	}
}

func TestResolveExactMultiword(t *testing.T) {
	a := New(testCatalog)
	cases := []struct{ phrase, want string }{
		{"1/2 cup extra virgin olive oil", "olive oil"},
		{"2 tablespoons soy sauce", "soy sauce"},
		{"1 cup freshly grated parmesan cheese", "parmesan cheese"},
		{"3 cloves garlic, minced", "garlic"},
		{"1 pound fresh tomatoes, diced", "tomato"},
		{"2 cups chopped red onions", "red onion"},
		{"a pinch of saffron", "saffron"},
		{"1 teaspoon garam masala", "garam masala"},
		{"monosodium glutamate to taste", "monosodium glutamate"},
	}
	for _, tc := range cases {
		m := a.Resolve(tc.phrase)
		if m.Status == Unrecognized {
			t.Errorf("%q unrecognized", tc.phrase)
			continue
		}
		if m.Ingredient != lookup(t, tc.want) {
			t.Errorf("%q matched %q, want %q", tc.phrase,
				testCatalog.Ingredient(m.Ingredient).Name, tc.want)
		}
	}
}

func TestResolveSynonyms(t *testing.T) {
	a := New(testCatalog)
	cases := []struct{ phrase, want string }{
		{"2 aubergines, sliced", "eggplant"},
		{"1 cup garbanzo beans", "chickpea"},
		{"3 spring onions", "scallion"},
		{"100 ml double cream", "heavy cream"},
		{"1 tsp hing", "asafoetida"},
		{"2 shots of whisky", "whiskey"},
	}
	for _, tc := range cases {
		m := a.Resolve(tc.phrase)
		if m.Status == Unrecognized {
			t.Errorf("%q unrecognized", tc.phrase)
			continue
		}
		if m.Ingredient != lookup(t, tc.want) {
			t.Errorf("%q matched %q, want %q", tc.phrase,
				testCatalog.Ingredient(m.Ingredient).Name, tc.want)
		}
	}
}

func TestResolveFuzzySpelling(t *testing.T) {
	a := New(testCatalog)
	// One-edit misspellings should be absorbed.
	cases := []struct{ phrase, want string }{
		{"2 cups brocoli", "broccoli"},
		{"1 tsp tumeric", "turmeric"},
		{"fresh cilantr", "cilantro"},
	}
	for _, tc := range cases {
		m := a.Resolve(tc.phrase)
		if m.Status == Unrecognized {
			t.Errorf("%q unrecognized", tc.phrase)
			continue
		}
		if m.Ingredient != lookup(t, tc.want) {
			t.Errorf("%q matched %q, want %q", tc.phrase,
				testCatalog.Ingredient(m.Ingredient).Name, tc.want)
		}
		if !m.Fuzzy {
			t.Errorf("%q should be flagged fuzzy", tc.phrase)
		}
	}
}

func TestFuzzyDisabled(t *testing.T) {
	a := New(testCatalog, WithEditBudget(0))
	m := a.Resolve("2 cups brocoli")
	if m.Status != Unrecognized {
		t.Fatalf("fuzzy disabled but status = %s", m.Status)
	}
}

func TestResolvePartial(t *testing.T) {
	a := New(testCatalog)
	// "jalapeno" matches; "wontons" is residue (not in catalog).
	m := a.Resolve("2 jalapeno wontons")
	if m.Status != Partial {
		t.Fatalf("status = %s (%+v)", m.Status, m)
	}
	if m.Ingredient != lookup(t, "jalapeno") {
		t.Fatalf("matched %q", testCatalog.Ingredient(m.Ingredient).Name)
	}
	if len(m.Residual) == 0 {
		t.Fatal("partial match should carry residual tokens")
	}
}

func TestResolveUnrecognized(t *testing.T) {
	a := New(testCatalog)
	for _, phrase := range []string{
		"2 cups xyzzy frobnitz",
		"",
		"1/2 3/4",
		"finely chopped",
	} {
		m := a.Resolve(phrase)
		if m.Status != Unrecognized {
			t.Errorf("%q: status = %s, matched %v", phrase, m.Status, m.MatchedText)
		}
		if m.Ingredient != flavor.Invalid {
			t.Errorf("%q: ingredient should be Invalid", phrase)
		}
	}
}

func TestGenericWordAloneRejected(t *testing.T) {
	a := New(testCatalog)
	// "juice" alone is generic (§III.B removed generic entities); it must
	// not match anything even though "lemon juice" etc. exist.
	m := a.Resolve("1 cup juice")
	if m.Status == Matched {
		t.Fatalf("lone generic word matched %q", testCatalog.Ingredient(m.Ingredient).Name)
	}
	// But the full name still matches.
	m = a.Resolve("1 cup lemon juice")
	if m.Status != Matched || m.Ingredient != lookup(t, "lemon juice") {
		t.Fatalf("lemon juice failed: %+v", m)
	}
}

func TestLongestMatchWins(t *testing.T) {
	a := New(testCatalog)
	// "sesame oil" must beat "sesame seed"-style unigram fallbacks and
	// plain "oil" (generic).
	m := a.Resolve("2 tsp toasted sesame oil")
	if m.Status == Unrecognized {
		t.Fatal("unrecognized")
	}
	if m.Ingredient != lookup(t, "sesame oil") {
		t.Fatalf("matched %q, want sesame oil", testCatalog.Ingredient(m.Ingredient).Name)
	}
	// "chicken stock" (compound) vs "chicken".
	m = a.Resolve("4 cups chicken stock")
	if m.Ingredient != lookup(t, "chicken stock") {
		t.Fatalf("matched %q, want chicken stock", testCatalog.Ingredient(m.Ingredient).Name)
	}
}

func TestResolveAllAndVocabulary(t *testing.T) {
	a := New(testCatalog)
	if a.VocabularySize() < testCatalog.Len()/2 {
		t.Fatalf("vocabulary suspiciously small: %d", a.VocabularySize())
	}
	ms := a.ResolveAll([]string{"2 cups milk", "1 egg"})
	if len(ms) != 2 || ms[0].Status == Unrecognized || ms[1].Status == Unrecognized {
		t.Fatalf("ResolveAll = %+v", ms)
	}
}

func TestStatusString(t *testing.T) {
	if Matched.String() != "matched" || Partial.String() != "partial" ||
		Unrecognized.String() != "unrecognized" || Status(9).String() != "invalid" {
		t.Fatal("status names wrong")
	}
}

func TestEndToEndAccuracyOnSynthesizedPhrases(t *testing.T) {
	// The §IV.A pipeline must recover the true entity from realistic
	// noisy phrases with high accuracy.
	a := New(testCatalog)
	ps := synth.NewPhraseSynthesizer(testCatalog, synth.DefaultPhraseConfig())
	batch := ps.RenderBatch(2000)
	correct, resolved := 0, 0
	for _, lp := range batch {
		m := a.Resolve(lp.Phrase)
		if m.Status == Unrecognized {
			continue
		}
		resolved++
		if m.Ingredient == lp.Truth {
			correct++
		}
	}
	resolveRate := float64(resolved) / float64(len(batch))
	if resolveRate < 0.9 {
		t.Fatalf("resolve rate %.3f < 0.9", resolveRate)
	}
	precision := float64(correct) / float64(resolved)
	if precision < 0.9 {
		t.Fatalf("precision %.3f < 0.9", precision)
	}
	t.Logf("resolve rate %.3f, precision %.3f", resolveRate, precision)
}

func TestCurate(t *testing.T) {
	a := New(testCatalog)
	phrases := []string{
		"2 cups milk",
		"1 xyzzy foo",
		"2 xyzzy foo",
		"3 xyzzy foo",
		"1 cup miso",
	}
	rep := Curate(a.ResolveAll(phrases), 2)
	if rep.TotalPhrases != 5 {
		t.Fatalf("TotalPhrases = %d", rep.TotalPhrases)
	}
	if rep.Matched < 2 {
		t.Fatalf("Matched = %d", rep.Matched)
	}
	if rep.Unrecognized != 3 {
		t.Fatalf("Unrecognized = %d (%+v)", rep.Unrecognized, rep)
	}
	// "xyzzy foo" recurs 3 times and must surface as a candidate.
	found := false
	for _, c := range rep.Candidates {
		if c.NGram == "xyzzy foo" && c.Count == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("recurring n-gram not surfaced: %+v", rep.Candidates)
	}
	if rep.MatchRate() <= 0 || rep.MatchRate() > 1 {
		t.Fatalf("MatchRate = %v", rep.MatchRate())
	}
}

func TestCurateEmpty(t *testing.T) {
	rep := Curate(nil, 1)
	if rep.TotalPhrases != 0 || rep.MatchRate() != 0 || len(rep.Candidates) != 0 {
		t.Fatalf("empty curation: %+v", rep)
	}
}

func TestCurateCandidatesSorted(t *testing.T) {
	a := New(testCatalog)
	phrases := []string{
		"1 zzz aaa", "2 zzz aaa", "1 yyy bbb", "2 yyy bbb", "3 yyy bbb",
	}
	rep := Curate(a.ResolveAll(phrases), 2)
	for i := 1; i < len(rep.Candidates); i++ {
		prev, cur := rep.Candidates[i-1], rep.Candidates[i]
		if prev.Count < cur.Count {
			t.Fatalf("candidates not sorted by count: %+v", rep.Candidates)
		}
		if prev.Count == cur.Count && prev.NGram > cur.NGram {
			t.Fatalf("ties not lexical: %+v", rep.Candidates)
		}
	}
}
