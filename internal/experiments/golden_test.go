package experiments

// Pinned paper goldens: Fig 4 rows and Fig 5 top-3 contributors at
// TestOptions(), compared exactly (floats as math.Float64bits hex), so
// `go test ./...` in the root module catches any drift of the paper's
// numbers without the separate bench module.
//
// testdata/fig4_fig5_golden.json was generated at commit adeed0d (PR 11,
// the parent of the PR that rebuilt the null-model sampling kernel) by
// marshalling computeGolden(testEnv) with json.MarshalIndent. A change
// that is meant to move the paper's numbers regenerates it the same way
// and says so; any other diff against it is a bug.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

type goldenRow struct {
	Region     string                    `json:"region"`
	Observed   string                    `json:"observed"`
	RandomMean string                    `json:"randomMean"`
	RandomStd  string                    `json:"randomStd"`
	ZCuisine   string                    `json:"zCuisine"`
	ZModel     [pairing.NumModels]string `json:"zModel"`
	ModelMean  [pairing.NumModels]string `json:"modelMean"`
	// Top3 are the Fig5(3, rows) contributor ingredient ids, in rank order.
	Top3 []int `json:"top3"`
}

type goldenFile struct {
	Scale       float64     `json:"scale"`
	NullRecipes int         `json:"nullRecipes"`
	Seed        uint64      `json:"seed"`
	Rows        []goldenRow `json:"rows"`
}

func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// goldenFig4 is the Fig 4 part of a golden row.
func goldenFig4(row Fig4Row) goldenRow {
	gr := goldenRow{
		Region:     row.Region.Code(),
		Observed:   floatBits(row.Observed),
		RandomMean: floatBits(row.RandomMean),
		RandomStd:  floatBits(row.RandomStd),
		ZCuisine:   floatBits(row.ZCuisine),
	}
	for m := range row.ZModel {
		gr.ZModel[m] = floatBits(row.ZModel[m])
		gr.ModelMean[m] = floatBits(row.ModelMean[m])
	}
	return gr
}

func computeGolden(e *Env) (goldenFile, error) {
	opts := TestOptions()
	g := goldenFile{Scale: opts.Scale, NullRecipes: opts.NullRecipes, Seed: opts.Seed}
	rows, err := e.Fig4()
	if err != nil {
		return g, err
	}
	fig5 := e.Fig5(3, rows)
	for i, row := range rows {
		gr := goldenFig4(row)
		if fig5[i].Region != row.Region {
			return g, fmt.Errorf("Fig5 row %d is %s, Fig4 row is %s", i, fig5[i].Region.Code(), row.Region.Code())
		}
		for _, c := range fig5[i].Top {
			gr.Top3 = append(gr.Top3, int(c.Ingredient))
		}
		g.Rows = append(g.Rows, gr)
	}
	return g, nil
}

func readGolden(t *testing.T) goldenFile {
	t.Helper()
	raw, err := os.ReadFile("testdata/fig4_fig5_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestFig4Fig5MatchPinnedGolden(t *testing.T) {
	want := readGolden(t)
	got, err := computeGolden(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scale != want.Scale || got.NullRecipes != want.NullRecipes || got.Seed != want.Seed {
		t.Fatalf("TestOptions() = (%g, %d, %d), golden was generated at (%g, %d, %d)",
			got.Scale, got.NullRecipes, got.Seed, want.Scale, want.NullRecipes, want.Seed)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, golden has %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			t.Errorf("row %d drifted from the pinned golden:\n got %+v\nwant %+v", i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestFig4GoldenAtAnyWorkerCount runs the (region, model) fan-out on 1, 2
// and 8 workers: every control draws from a stream split off before any
// task runs, so the sweep and the single-region entry point must both
// give the pinned bits whatever the worker count.
func TestFig4GoldenAtAnyWorkerCount(t *testing.T) {
	want := readGolden(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		rows, err := testEnv.Fig4()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(want.Rows) {
			t.Fatalf("GOMAXPROCS=%d: %d rows, golden has %d", procs, len(rows), len(want.Rows))
		}
		for i, row := range rows {
			w := want.Rows[i]
			w.Top3 = nil
			if got := goldenFig4(row); !reflect.DeepEqual(got, w) {
				t.Errorf("GOMAXPROCS=%d: Fig4 row %d drifted from the pinned golden:\n got %+v\nwant %+v", procs, i, got, w)
			}
			one, err := testEnv.Fig4Region(row.Region)
			if err != nil {
				t.Fatal(err)
			}
			if got := goldenFig4(one); !reflect.DeepEqual(got, w) {
				t.Errorf("GOMAXPROCS=%d: Fig4Region(%s) drifted from the pinned golden:\n got %+v\nwant %+v", procs, w.Region, got, w)
			}
		}
	}
}

// TestFig4RegionRefusesAControlThatScoredNothing: NewEnv refuses a
// NullRecipes this small, but the field is exported. A Random control
// with no scored draw has no moments, and every Z of the row would be
// NaN; the row must not be returned.
func TestFig4RegionRefusesAControlThatScoredNothing(t *testing.T) {
	env := *testEnv
	env.NullRecipes = 0
	row, err := env.Fig4Region(recipedb.Italy)
	if err == nil {
		t.Fatalf("Fig4Region with no null draws returned a row (ZCuisine %v), want an error", row.ZCuisine)
	}
	if !strings.Contains(err.Error(), pairing.RandomModel.String()+" produced no scorable recipes") {
		t.Fatalf("error %q does not name the Random control", err)
	}
	if _, err := env.Fig4(); err == nil {
		t.Fatal("Fig4 with no null draws returned rows, want an error")
	}
}
