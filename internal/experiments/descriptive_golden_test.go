package experiments

// Pinned descriptive-figure golden: Table 1, Fig 2, Fig 3a and Fig 3b
// at TestOptions(), one row per major region plus WORLD, compared
// exactly (floats as math.Float64bits hex, counts as integers).
//
// testdata/descriptive_golden.json was generated at commit 071fa13 (the
// parent of the change that added this test) by marshalling
// computeDescriptiveGolden(testEnv) with json.MarshalIndent. A change
// that is meant to move these numbers regenerates it the same way and
// says so; any other diff against it is a bug.

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

type descriptiveGoldenRegion struct {
	Region string `json:"region"`
	// Table 1.
	Recipes     int `json:"recipes"`
	Ingredients int `json:"ingredients"`
	// Fig 2: usage fraction per category, in the file's category order.
	CategoryUsage []string `json:"categoryUsage"`
	// Fig 3a.
	MeanSize string   `json:"meanSize"`
	ModeSize int      `json:"modeSize"`
	MaxSize  int      `json:"maxSize"`
	Sizes    []int    `json:"sizes"`
	SizePMF  []string `json:"sizePMF"`
	SizeCDF  []string `json:"sizeCDF"`
	// Fig 3b.
	Gini     string   `json:"gini"`
	RankFreq []string `json:"rankFreq"`
	CumShare []string `json:"cumShare"`
}

type descriptiveGoldenFile struct {
	Scale      float64                   `json:"scale"`
	Seed       uint64                    `json:"seed"`
	Categories []string                  `json:"categories"`
	Regions    []descriptiveGoldenRegion `json:"regions"`
}

func floatBitsAll(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = floatBits(v)
	}
	return out
}

func computeDescriptiveGolden(t *testing.T, e *Env) descriptiveGoldenFile {
	t.Helper()
	opts := TestOptions()
	g := descriptiveGoldenFile{Scale: opts.Scale, Seed: opts.Seed}
	table1, fig2, fig3a, fig3b := e.Table1(), e.Fig2(), e.Fig3a(), e.Fig3b()
	g.Categories = fig2.ColLabels
	if len(fig2.RowLabels) != len(table1) || len(fig3a) != len(table1) || len(fig3b) != len(table1) {
		t.Fatalf("row counts differ: Table 1 %d, Fig 2 %d, Fig 3a %d, Fig 3b %d",
			len(table1), len(fig2.RowLabels), len(fig3a), len(fig3b))
	}
	for i, row := range table1 {
		code := row.Region.Code()
		if fig2.RowLabels[i] != code || fig3a[i].Region != row.Region || fig3b[i].Region != row.Region {
			t.Fatalf("row %d is %s in Table 1 but %s / %s / %s in Fig 2 / 3a / 3b",
				i, code, fig2.RowLabels[i], fig3a[i].Region.Code(), fig3b[i].Region.Code())
		}
		a, b := fig3a[i], fig3b[i]
		g.Regions = append(g.Regions, descriptiveGoldenRegion{
			Region:        code,
			Recipes:       row.Recipes,
			Ingredients:   row.Ingredients,
			CategoryUsage: floatBitsAll(fig2.Values[i]),
			MeanSize:      floatBits(a.Mean),
			ModeSize:      a.Mode,
			MaxSize:       a.Max,
			Sizes:         a.Sizes,
			SizePMF:       floatBitsAll(a.PMF),
			SizeCDF:       floatBitsAll(a.CDF),
			Gini:          floatBits(b.Gini),
			RankFreq:      floatBitsAll(b.RankFreq),
			CumShare:      floatBitsAll(b.CumShare),
		})
	}
	return g
}

func TestDescriptiveFiguresMatchPinnedGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/descriptive_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want descriptiveGoldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := computeDescriptiveGolden(t, testEnv)
	if got.Scale != want.Scale || got.Seed != want.Seed {
		t.Fatalf("TestOptions() = (%g, %d), golden was generated at (%g, %d)", got.Scale, got.Seed, want.Scale, want.Seed)
	}
	if !reflect.DeepEqual(got.Categories, want.Categories) {
		t.Fatalf("Fig 2 categories %v, golden has %v", got.Categories, want.Categories)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%d regions, golden has %d", len(got.Regions), len(want.Regions))
	}
	for i := range want.Regions {
		if !reflect.DeepEqual(got.Regions[i], want.Regions[i]) {
			t.Errorf("region row %d (%s) drifted from the pinned golden:\n got %+v\nwant %+v",
				i, want.Regions[i].Region, got.Regions[i], want.Regions[i])
		}
	}
}
