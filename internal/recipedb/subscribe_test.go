package recipedb

import (
	"strings"
	"testing"

	"culinary/internal/flavor"
)

func TestSubscribeObservesUpsertAndRemove(t *testing.T) {
	s := NewStore(testCatalog)
	id0 := addRecipe(t, s, "tomato salad", Italy, "tomato", "basil", "olive oil")

	var got []Mutation
	var initLen int
	var initVersion uint64
	s.SubscribeBatch(func(v *View) {
		initLen = v.Len()
		initVersion = v.Version
	}, func(ms []Mutation) { got = append(got, ms...) })
	if initLen != 1 || initVersion != s.Version() {
		t.Fatalf("init saw (%d, %d), want (1, %d)", initLen, initVersion, s.Version())
	}

	id1 := addRecipe(t, s, "pesto pasta", Italy, "basil", "garlic", "olive oil")
	if len(got) != 1 {
		t.Fatalf("after insert: %d mutations", len(got))
	}
	m := got[0]
	if m.ID != id1 || m.Old != nil || m.New == nil || m.New.Name != "pesto pasta" || m.Version != s.Version() {
		t.Fatalf("insert mutation = %+v", m)
	}

	// Replace: Old carries the displaced recipe, New the replacement.
	ings := []flavor.ID{mustID(t, "tomato"), mustID(t, "onion")}
	if _, _, created, err := s.Upsert(id0, "tomato soup", USA, Epicurious, ings); err != nil || created {
		t.Fatalf("replace: created=%t err=%v", created, err)
	}
	m = got[1]
	if m.ID != id0 || m.Old == nil || m.Old.Name != "tomato salad" || m.Old.Region != Italy ||
		m.New == nil || m.New.Name != "tomato soup" || m.New.Region != USA {
		t.Fatalf("replace mutation = %+v", m)
	}

	// Remove: New is nil, Old is the tombstoned recipe.
	if _, err := s.Remove(id1); err != nil {
		t.Fatal(err)
	}
	m = got[2]
	if m.ID != id1 || m.New != nil || m.Old == nil || m.Old.Name != "pesto pasta" {
		t.Fatalf("remove mutation = %+v", m)
	}

	// Versions must be strictly increasing and end at the live version.
	for i := 1; i < len(got); i++ {
		if got[i].Version <= got[i-1].Version {
			t.Fatalf("versions not increasing: %d then %d", got[i-1].Version, got[i].Version)
		}
	}
	if got[len(got)-1].Version != s.Version() {
		t.Fatalf("last mutation version %d != store version %d", got[len(got)-1].Version, s.Version())
	}
}

func TestSubscribeFailedMutationsDoNotNotify(t *testing.T) {
	s := NewStore(testCatalog)
	n := 0
	s.SubscribeBatch(nil, func(ms []Mutation) { n += len(ms) })
	if _, err := s.Add("bad", Italy, AllRecipes, []flavor.ID{mustID(t, "tomato")}); err == nil {
		t.Fatal("single-ingredient recipe validated")
	}
	if _, err := s.Remove(0); err == nil {
		t.Fatal("Remove on empty store succeeded")
	}
	if n != 0 {
		t.Fatalf("failed mutations notified %d times", n)
	}
}

func TestViewAccessors(t *testing.T) {
	s := NewStore(testCatalog)
	addRecipe(t, s, "tomato salad", Italy, "tomato", "basil", "olive oil")
	addRecipe(t, s, "miso soup", Japan, "tofu", "scallion", "garlic")
	s.Read(func(v *View) {
		if v.Catalog() != testCatalog {
			t.Error("View.Catalog mismatch")
		}
		if ids := v.RegionRecipes(World); len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
			t.Errorf("RegionRecipes(World) = %v", ids)
		}
		regions := v.Regions()
		if len(regions) != 2 || regions[0] != Italy || regions[1] != Japan {
			t.Errorf("Regions = %v", regions)
		}
		c := v.BuildCuisine(Italy)
		if c.NumRecipes() != 1 || c.Region != Italy {
			t.Errorf("BuildCuisine(Italy) = %+v", c)
		}
	})
}

// TestParseRegionCaseInsensitive is the satellite's round-trip battery:
// every canonical code survives parse → String → parse in any casing.
func TestParseRegionCaseInsensitive(t *testing.T) {
	all := append(AllRegions(), World)
	for _, region := range all {
		code := region.Code()
		for _, variant := range []string{code, strings.ToLower(code), strings.ToUpper(code), strings.Title(strings.ToLower(code))} {
			got, err := ParseRegion(variant)
			if err != nil {
				t.Fatalf("ParseRegion(%q): %v", variant, err)
			}
			if got != region {
				t.Fatalf("ParseRegion(%q) = %v, want %v", variant, got, region)
			}
			// Round trip: the canonical String() must re-parse to itself.
			again, err := ParseRegion(got.String())
			if err != nil || again != region {
				t.Fatalf("round trip %q -> %q -> (%v, %v)", variant, got.String(), again, err)
			}
		}
	}
	if _, err := ParseRegion("NOPE"); err == nil {
		t.Fatal("unknown code parsed")
	}
}
