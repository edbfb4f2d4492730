package assoc

import (
	"math"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

var testCatalog = func() *flavor.Catalog {
	c, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return c
}()

func id(t *testing.T, name string) flavor.ID {
	t.Helper()
	v, ok := testCatalog.Lookup(name)
	if !ok {
		t.Fatalf("missing %q", name)
	}
	return v
}

// fixture builds a 10-recipe cuisine with engineered co-occurrence:
// {tomato, basil} in 6 recipes, {tomato, basil, olive oil} in 4,
// garlic independent.
func fixture(t *testing.T) (*recipedb.Store, *recipedb.Cuisine) {
	t.Helper()
	s := recipedb.NewStore(testCatalog)
	add := func(names ...string) {
		ids := make([]flavor.ID, len(names))
		for i, n := range names {
			ids[i] = id(t, n)
		}
		if _, err := s.Add("r", recipedb.Italy, recipedb.AllRecipes, ids); err != nil {
			t.Fatal(err)
		}
	}
	add("tomato", "basil", "olive oil")
	add("tomato", "basil", "olive oil")
	add("tomato", "basil", "olive oil", "garlic")
	add("tomato", "basil", "olive oil", "onion")
	add("tomato", "basil", "garlic")
	add("tomato", "basil", "onion")
	add("tomato", "garlic")
	add("basil", "garlic")
	add("onion", "garlic")
	add("pasta", "garlic")
	return s, s.BuildCuisine(recipedb.Italy)
}

func TestMineSingletons(t *testing.T) {
	store, c := fixture(t)
	levels, err := Mine(store, c, Config{MinSupport: 0.5, MaxSize: 1, MinConfidence: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 1 {
		t.Fatalf("levels = %d", len(levels))
	}
	// tomato (7/10), basil (7/10), garlic (6/10) qualify at 50%.
	if len(levels[0]) != 3 {
		t.Fatalf("singletons = %+v", levels[0])
	}
	for _, is := range levels[0] {
		if is.Support < 0.5 {
			t.Fatalf("infrequent singleton: %+v", is)
		}
		if is.Count != c.Uses(is.Items[0]) {
			t.Fatalf("count mismatch: %+v", is)
		}
	}
}

func TestMinePairsAndTriples(t *testing.T) {
	store, c := fixture(t)
	levels, err := Mine(store, c, Config{MinSupport: 0.4, MaxSize: 3, MinConfidence: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 2 {
		t.Fatalf("expected pairs, got %d levels", len(levels))
	}
	// {tomato, basil} appears in 6 of 10 recipes.
	tb := [2]flavor.ID{id(t, "tomato"), id(t, "basil")}
	if tb[0] > tb[1] {
		tb[0], tb[1] = tb[1], tb[0]
	}
	found := false
	for _, is := range levels[1] {
		if len(is.Items) != 2 {
			t.Fatalf("level 2 has %d-item set", len(is.Items))
		}
		if is.Items[0] == tb[0] && is.Items[1] == tb[1] {
			found = true
			if is.Count != 6 {
				t.Fatalf("tomato+basil count = %d, want 6", is.Count)
			}
			if math.Abs(is.Support-0.6) > 1e-12 {
				t.Fatalf("support = %v", is.Support)
			}
		}
	}
	if !found {
		t.Fatal("tomato+basil not mined")
	}
	// {tomato, basil, olive oil} appears in 4 recipes (support 0.4).
	if len(levels) >= 3 {
		foundTriple := false
		for _, is := range levels[2] {
			if is.Count == 4 {
				foundTriple = true
			}
		}
		if !foundTriple {
			t.Fatal("triple missing")
		}
	} else {
		t.Fatal("triples not mined at support 0.4")
	}
}

func TestMineSupportMonotone(t *testing.T) {
	// Downward closure: every k-itemset's support <= min over its
	// (k-1)-subsets.
	store, c := fixture(t)
	levels, err := Mine(store, c, Config{MinSupport: 0.1, MaxSize: 4, MinConfidence: 0})
	if err != nil {
		t.Fatal(err)
	}
	supp := map[string]float64{}
	for _, level := range levels {
		for _, is := range level {
			supp[fingerprint(is.Items)] = is.Support
		}
	}
	for _, level := range levels[1:] {
		for _, is := range level {
			buf := make([]flavor.ID, 0, len(is.Items)-1)
			for skip := range is.Items {
				buf = buf[:0]
				for i, v := range is.Items {
					if i != skip {
						buf = append(buf, v)
					}
				}
				parent, ok := supp[fingerprint(buf)]
				if !ok {
					t.Fatalf("subset of frequent set not frequent: %v ⊂ %v", buf, is.Items)
				}
				if is.Support > parent+1e-12 {
					t.Fatalf("support not monotone: %v", is)
				}
			}
		}
	}
}

func TestMineItemsSortedWithinSets(t *testing.T) {
	store, c := fixture(t)
	levels, err := Mine(store, c, Config{MinSupport: 0.2, MaxSize: 3, MinConfidence: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range levels {
		for _, is := range level {
			for i := 1; i < len(is.Items); i++ {
				if is.Items[i-1] >= is.Items[i] {
					t.Fatalf("itemset not ascending: %v", is.Items)
				}
			}
		}
	}
}

func TestMineValidation(t *testing.T) {
	store, c := fixture(t)
	bad := []Config{
		{MinSupport: 0, MaxSize: 2, MinConfidence: 0.5},
		{MinSupport: 1.5, MaxSize: 2, MinConfidence: 0.5},
		{MinSupport: 0.1, MaxSize: 0, MinConfidence: 0.5},
		{MinSupport: 0.1, MaxSize: 2, MinConfidence: -0.1},
	}
	for i, cfg := range bad {
		if _, err := Mine(store, c, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	empty := store.BuildCuisine(recipedb.Korea)
	if _, err := Mine(store, empty, DefaultConfig()); err == nil {
		t.Error("empty cuisine accepted")
	}
}

func TestRules(t *testing.T) {
	store, c := fixture(t)
	levels, err := Mine(store, c, Config{MinSupport: 0.3, MaxSize: 3, MinConfidence: 0})
	if err != nil {
		t.Fatal(err)
	}
	rules := Rules(levels, c, Config{MinSupport: 0.3, MaxSize: 3, MinConfidence: 0.5})
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	tomato, basil := id(t, "tomato"), id(t, "basil")
	var tb *Rule
	for i := range rules {
		r := &rules[i]
		if r.Confidence < 0.5 {
			t.Fatalf("rule below MinConfidence: %+v", r)
		}
		if r.Lift < 0 {
			t.Fatalf("negative lift: %+v", r)
		}
		if len(r.Consequent) != 1 {
			t.Fatalf("multi-item consequent: %+v", r)
		}
		if len(r.Antecedent) == 1 && r.Antecedent[0] == tomato && r.Consequent[0] == basil {
			tb = r
		}
	}
	if tb == nil {
		t.Fatal("tomato → basil rule missing")
	}
	// P(basil|tomato) = 6/7; P(basil) = 7/10; lift = (6/7)/(7/10).
	if math.Abs(tb.Confidence-6.0/7) > 1e-12 {
		t.Fatalf("confidence = %v", tb.Confidence)
	}
	if math.Abs(tb.Lift-(6.0/7)/(0.7)) > 1e-12 {
		t.Fatalf("lift = %v", tb.Lift)
	}
	// Sorted by lift descending.
	for i := 1; i < len(rules); i++ {
		if rules[i].Lift > rules[i-1].Lift+1e-12 {
			t.Fatal("rules not sorted by lift")
		}
	}
}

func TestRulesEmptyInputs(t *testing.T) {
	_, c := fixture(t)
	if got := Rules(nil, c, DefaultConfig()); got != nil {
		t.Fatal("nil levels should give nil rules")
	}
	if got := Rules([][]ItemSet{{}}, c, DefaultConfig()); got != nil {
		t.Fatal("singleton-only levels should give nil rules")
	}
}

func TestContainsSorted(t *testing.T) {
	tx := []flavor.ID{1, 3, 5, 9}
	cases := []struct {
		cand []flavor.ID
		want bool
	}{
		{[]flavor.ID{1}, true},
		{[]flavor.ID{3, 9}, true},
		{[]flavor.ID{1, 3, 5, 9}, true},
		{[]flavor.ID{2}, false},
		{[]flavor.ID{1, 4}, false},
		{[]flavor.ID{9, 10}, false},
		{nil, true},
	}
	for _, tc := range cases {
		if got := containsSorted(tx, tc.cand); got != tc.want {
			t.Errorf("containsSorted(%v) = %v", tc.cand, got)
		}
	}
}
