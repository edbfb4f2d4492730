package recipedb

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"culinary/internal/flavor"
)

var testCatalog = func() *flavor.Catalog {
	c, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return c
}()

func mustID(t *testing.T, name string) flavor.ID {
	t.Helper()
	id, ok := testCatalog.Lookup(name)
	if !ok {
		t.Fatalf("catalog missing %q", name)
	}
	return id
}

func addRecipe(t *testing.T, s *Store, name string, r Region, names ...string) int {
	t.Helper()
	ids := make([]flavor.ID, len(names))
	for i, n := range names {
		ids[i] = mustID(t, n)
	}
	id, err := s.Add(name, r, AllRecipes, ids)
	if err != nil {
		t.Fatalf("Add(%q): %v", name, err)
	}
	return id
}

func TestStoreAddAndQuery(t *testing.T) {
	s := NewStore(testCatalog)
	id0 := addRecipe(t, s, "tomato salad", Italy, "tomato", "basil", "olive oil", "salt")
	id1 := addRecipe(t, s, "dal", IndianSubcontinent, "lentil", "turmeric", "cumin", "onion", "ghee")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	r := s.Recipe(id0)
	if r.Name != "tomato salad" || r.Region != Italy || r.Size() != 4 {
		t.Fatalf("recipe 0 wrong: %+v", r)
	}
	if !r.Contains(mustID(t, "basil")) || r.Contains(mustID(t, "cumin")) {
		t.Fatal("Contains wrong")
	}
	if s.RegionLen(Italy) != 1 || s.RegionLen(IndianSubcontinent) != 1 || s.RegionLen(France) != 0 {
		t.Fatal("RegionLen wrong")
	}
	if s.RegionLen(World) != 2 {
		t.Fatal("World should count everything")
	}
	_ = id1
	regions := s.Regions()
	if len(regions) != 2 || regions[0] != IndianSubcontinent || regions[1] != Italy {
		t.Fatalf("Regions = %v", regions)
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore(testCatalog)
	tomato := mustID(t, "tomato")
	basil := mustID(t, "basil")
	cases := []struct {
		name   string
		region Region
		source Source
		ings   []flavor.ID
	}{
		{"bad region", World, AllRecipes, []flavor.ID{tomato, basil}},
		{"invalid region", Region(99), AllRecipes, []flavor.ID{tomato, basil}},
		{"bad source", Italy, Source(9), []flavor.ID{tomato, basil}},
		{"too few", Italy, AllRecipes, []flavor.ID{tomato}},
		{"dup ingredient", Italy, AllRecipes, []flavor.ID{tomato, tomato}},
		{"out of range", Italy, AllRecipes, []flavor.ID{tomato, flavor.ID(99999)}},
		{"negative id", Italy, AllRecipes, []flavor.ID{tomato, flavor.ID(-1)}},
	}
	for _, tc := range cases {
		if _, err := s.Add(tc.name, tc.region, tc.source, tc.ings); !errors.Is(err, ErrValidation) {
			t.Errorf("%s: err = %v, want ErrValidation", tc.name, err)
		}
	}
	if s.Len() != 0 {
		t.Fatal("failed adds should not persist")
	}
}

func TestRegionRecipes(t *testing.T) {
	s := NewStore(testCatalog)
	a := addRecipe(t, s, "a", Italy, "tomato", "basil")
	b := addRecipe(t, s, "b", France, "butter", "cream")
	c := addRecipe(t, s, "c", Italy, "pasta", "parmesan cheese")
	if got := s.RegionRecipes(Italy); !reflect.DeepEqual(got, []int{a, c}) {
		t.Fatalf("RegionRecipes(Italy) = %v", got)
	}
	if got := s.RegionRecipes(World); !reflect.DeepEqual(got, []int{a, b, c}) {
		t.Fatalf("RegionRecipes(World) = %v", got)
	}
}

func TestBuildCuisine(t *testing.T) {
	s := NewStore(testCatalog)
	addRecipe(t, s, "a", Italy, "tomato", "basil", "olive oil")
	addRecipe(t, s, "b", Italy, "tomato", "mozzarella cheese")
	addRecipe(t, s, "c", France, "butter", "cream")
	c := s.BuildCuisine(Italy)
	if c.NumRecipes() != 2 {
		t.Fatalf("NumRecipes = %d", c.NumRecipes())
	}
	if c.NumUniqueIngredients() != 4 {
		t.Fatalf("unique = %d", c.NumUniqueIngredients())
	}
	if got := c.Uses(mustID(t, "tomato")); got != 2 {
		t.Fatalf("tomato freq = %d", got)
	}
	if got := s.IngredientLists(c.RecipeIDs); len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 2 {
		t.Fatalf("ingredient lists = %v", got)
	}
	h := c.SizeHistogram()
	if h.Total() != 2 || h.Count(3) != 1 || h.Count(2) != 1 {
		t.Fatal("size histogram wrong")
	}
	top := c.TopIngredients(1)
	if len(top) != 1 || top[0] != mustID(t, "tomato") {
		t.Fatalf("TopIngredients = %v", top)
	}
	fv := c.FrequencyVector()
	if len(fv) != 4 {
		t.Fatalf("FrequencyVector = %v", fv)
	}
	// World cuisine pools everything.
	w := s.BuildCuisine(World)
	if w.NumRecipes() != 3 {
		t.Fatalf("World NumRecipes = %d", w.NumRecipes())
	}
}

func TestTopIngredientsDeterministicTies(t *testing.T) {
	s := NewStore(testCatalog)
	addRecipe(t, s, "a", Italy, "tomato", "basil")
	c := s.BuildCuisine(Italy)
	// Both have frequency 1; tie breaks by ID.
	top := c.TopIngredients(2)
	if len(top) != 2 || top[0] > top[1] {
		t.Fatalf("tie-break not by ID: %v", top)
	}
	// k larger than available clamps.
	if got := c.TopIngredients(10); len(got) != 2 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestCategoryUsage(t *testing.T) {
	s := NewStore(testCatalog)
	addRecipe(t, s, "a", Italy, "tomato", "basil", "milk", "butter")
	usage := s.CategoryUsage(Italy)
	if len(usage) != flavor.NumCategories {
		t.Fatalf("usage has %d entries", len(usage))
	}
	var total float64
	for _, u := range usage {
		total += u
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("usage sums to %v", total)
	}
	if usage[flavor.Dairy] != 0.5 {
		t.Fatalf("dairy usage = %v, want 0.5", usage[flavor.Dairy])
	}
	if usage[flavor.Vegetable] != 0.25 || usage[flavor.Herb] != 0.25 {
		t.Fatalf("vegetable/herb usage = %v/%v", usage[flavor.Vegetable], usage[flavor.Herb])
	}
	// Empty region: all zeros.
	empty := s.CategoryUsage(Korea)
	for _, u := range empty {
		if u != 0 {
			t.Fatal("empty region should have zero usage")
		}
	}
}

func TestRegionMetadata(t *testing.T) {
	if len(MajorRegions()) != 22 {
		t.Fatalf("paper analyzes 22 regions, got %d", len(MajorRegions()))
	}
	if len(AllRegions()) != 26 {
		t.Fatalf("26 total regions, got %d", len(AllRegions()))
	}
	// Table 1 totals: 45,565 major + 207 minor = 45,772.
	major, minor := 0, 0
	for _, r := range AllRegions() {
		if r.Major() {
			major += r.PaperRecipeCount()
		} else {
			minor += r.PaperRecipeCount()
		}
	}
	if major != 45565 {
		t.Errorf("major recipe total = %d, want 45565", major)
	}
	if minor != 207 {
		t.Errorf("minor recipe total = %d, want 207 (§III.A)", minor)
	}
	if World.PaperRecipeCount() != 45772 {
		t.Errorf("world total = %d", World.PaperRecipeCount())
	}
	// Fig 4: 16 positive, 6 negative.
	pos, neg := 0, 0
	for _, r := range MajorRegions() {
		switch r.PairingSign() {
		case +1:
			pos++
		case -1:
			neg++
		default:
			t.Errorf("major region %s has no pairing sign", r)
		}
		if float64(r.PairingSign())*r.PairingBias() <= 0 {
			t.Errorf("region %s bias %v inconsistent with sign %d", r, r.PairingBias(), r.PairingSign())
		}
	}
	if pos != 16 || neg != 6 {
		t.Errorf("pairing signs: %d positive, %d negative; want 16/6", pos, neg)
	}
	// Specific values from Table 1.
	if Korea.PaperRecipeCount() != 301 || USA.PaperRecipeCount() != 16118 {
		t.Error("Korea/USA counts wrong")
	}
	if USA.PaperIngredientCount() != 612 || Korea.PaperIngredientCount() != 198 {
		t.Error("Korea/USA ingredient counts wrong")
	}
	// Negative regions are exactly the paper's six.
	negSet := map[Region]bool{}
	for _, r := range MajorRegions() {
		if r.PairingSign() < 0 {
			negSet[r] = true
		}
	}
	for _, want := range []Region{Scandinavia, Japan, DACH, BritishIsles, Korea, EasternEurope} {
		if !negSet[want] {
			t.Errorf("region %s should be negative-pairing", want)
		}
	}
}

func TestParseRegionAndSource(t *testing.T) {
	r, err := ParseRegion("INSC")
	if err != nil || r != IndianSubcontinent {
		t.Fatalf("ParseRegion(INSC) = %v, %v", r, err)
	}
	if _, err := ParseRegion("XX"); err == nil {
		t.Fatal("unknown region should error")
	}
	src, err := ParseSource("TarlaDalal")
	if err != nil || src != TarlaDalal {
		t.Fatalf("ParseSource = %v, %v", src, err)
	}
	if _, err := ParseSource("nope"); err == nil {
		t.Fatal("unknown source should error")
	}
	if got := Region(99).Code(); !strings.HasPrefix(got, "Region(") {
		t.Fatalf("invalid region Code = %q", got)
	}
	if got := Source(99).String(); !strings.HasPrefix(got, "Source(") {
		t.Fatalf("invalid source String = %q", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewStore(testCatalog)
	addRecipe(t, s, "caprese", Italy, "tomato", "mozzarella cheese", "basil", "olive oil")
	addRecipe(t, s, "dal tadka", IndianSubcontinent, "lentil", "cumin", "ghee", "turmeric", "onion")
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost recipes: %d vs %d", got.Len(), s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		a, b := s.Recipe(i), got.Recipe(i)
		if a.Name != b.Name || a.Region != b.Region || a.Source != b.Source {
			t.Fatalf("recipe %d metadata differs", i)
		}
		if len(a.Ingredients) != len(b.Ingredients) {
			t.Fatalf("recipe %d ingredients differ", i)
		}
		for j := range a.Ingredients {
			if a.Ingredients[j] != b.Ingredients[j] {
				t.Fatalf("recipe %d ingredient %d differs", i, j)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := NewStore(testCatalog)
	addRecipe(t, s, "caprese", Italy, "tomato", "mozzarella cheese", "basil")
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf, testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Recipe(0).Name != "caprese" {
		t.Fatalf("JSON round trip failed: %+v", got.Recipe(0))
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct{ name, data string }{
		{"bad header", "a,b,c,d,e\n"},
		{"bad region", "id,name,region,source,ingredients\n0,x,NOPE,AllRecipes,tomato;basil\n"},
		{"bad source", "id,name,region,source,ingredients\n0,x,ITA,Nope,tomato;basil\n"},
		{"bad ingredient", "id,name,region,source,ingredients\n0,x,ITA,AllRecipes,unobtainium;basil\n"},
		{"too few ingredients", "id,name,region,source,ingredients\n0,x,ITA,AllRecipes,tomato\n"},
		{"wrong field count", "id,name,region,source,ingredients\n0,x,ITA\n"},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.data), testCatalog); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []struct{ name, data string }{
		{"malformed", "{"},
		{"bad region", `{"recipes":[{"id":0,"name":"x","region":"NOPE","source":"AllRecipes","ingredients":["tomato","basil"]}]}`},
		{"bad ingredient", `{"recipes":[{"id":0,"name":"x","region":"ITA","source":"AllRecipes","ingredients":["unobtainium","basil"]}]}`},
		{"bad source", `{"recipes":[{"id":0,"name":"x","region":"ITA","source":"Nope","ingredients":["tomato","basil"]}]}`},
	}
	for _, tc := range cases {
		if _, err := ReadJSON(strings.NewReader(tc.data), testCatalog); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSourceCounts(t *testing.T) {
	s := NewStore(testCatalog)
	tomato, basil := mustID(t, "tomato"), mustID(t, "basil")
	if _, err := s.Add("a", Italy, AllRecipes, []flavor.ID{tomato, basil}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add("b", Italy, Epicurious, []flavor.ID{tomato, basil}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add("c", Italy, Epicurious, []flavor.ID{tomato, basil}); err != nil {
		t.Fatal(err)
	}
	counts := s.SourceCounts()
	if counts[AllRecipes] != 1 || counts[Epicurious] != 2 {
		t.Fatalf("SourceCounts = %v", counts)
	}
}

// TestParseRecipeKey is the property ok ⇔ key == RecipeKey(id): every
// rendered key parses back to its ID, and nothing parses that RecipeKey
// would not have rendered — a hostile table, then random keys and the
// neighbours of rendered ones.
func TestParseRecipeKey(t *testing.T) {
	check := func(key string) {
		t.Helper()
		id, ok := ParseRecipeKey(key)
		if ok != (id >= 0 && RecipeKey(id) == key) {
			t.Errorf("ParseRecipeKey(%q) = %d, %v; RecipeKey(%d) = %q", key, id, ok, id, RecipeKey(id))
		}
	}
	rng := rand.New(rand.NewSource(1))
	ids := []int{0, 12, 45771, 99999999, 100000000, 100000001, 1<<31 - 1, math.MaxInt}
	for i := 0; i < 2000; i++ {
		ids = append(ids, int(rng.Int63()>>uint(rng.Intn(63))))
	}
	for _, id := range ids {
		key := RecipeKey(id)
		if got, ok := ParseRecipeKey(key); !ok || got != id {
			t.Errorf("ParseRecipeKey(RecipeKey(%d)) = %d, %v", id, got, ok)
		}
		// Neighbours: a digit dropped, a byte replaced, a zero or junk added.
		at := len(RecipePrefix) + rng.Intn(len(key)-len(RecipePrefix))
		check(key[:at] + key[at+1:])
		check(key[:at] + string(rune(rng.Intn(128))) + key[at+1:])
		check(RecipePrefix + "0" + key[len(RecipePrefix):])
		check(key + string(rune(rng.Intn(128))))
	}
	for _, key := range []string{
		"",
		RecipePrefix,
		"meta/format",
		"recipe/00000012x", // trailing junk
		"recipe/00000012 ",
		"recipe/-0000012",
		"recipe/+0000012",
		"recipe/-00000012",
		"recipe/0000_012",
		"recipe/0x000012",
		"recipe/12",        // missing zero pad
		"recipe/000000012", // surplus zero pad
		"recipe/0100000000",
		"recipe/0000001２", // non-ASCII digit
		"recipe/99999999999999999999",
		"recipe/9223372036854775808", // MaxInt + 1
		"xrecipe/00000012",
		RecipeKey(-1),
		RecipeKey(-12345678),
		RecipeKey(math.MinInt),
	} {
		check(key)
		if id, ok := ParseRecipeKey(key); ok {
			t.Errorf("ParseRecipeKey(%q) = %d, want reject", key, id)
		}
	}
}
