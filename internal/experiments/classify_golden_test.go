package experiments

// Pinned ExtClassify golden: the held-out evaluation of the cuisine
// classifier at TestOptions(), compared exactly (floats as
// math.Float64bits hex, counts as integers).
//
// testdata/classify_golden.json was generated at commit 97b8e43 (the
// parent of the change that made the classifier keep integer counts in
// place of its log-likelihood table) by marshalling
// computeClassifyGolden(testEnv) with json.MarshalIndent. A change that
// is meant to move these numbers regenerates it the same way and says
// so; any other diff against it is a bug.

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"culinary/internal/recipedb"
)

type classifyGoldenRegion struct {
	Region    string `json:"region"`
	Support   int    `json:"support"`
	Precision string `json:"precision"`
	Recall    string `json:"recall"`
	F1        string `json:"f1"`
	// Confusion counts this region's test recipes by predicted region.
	Confusion map[string]int `json:"confusion"`
}

type classifyGoldenFile struct {
	Scale            float64                `json:"scale"`
	Seed             uint64                 `json:"seed"`
	Total            int                    `json:"total"`
	Accuracy         string                 `json:"accuracy"`
	MajorityBaseline string                 `json:"majorityBaseline"`
	Regions          []classifyGoldenRegion `json:"regions"`
}

func computeClassifyGolden(e *Env) (classifyGoldenFile, error) {
	opts := TestOptions()
	g := classifyGoldenFile{Scale: opts.Scale, Seed: opts.Seed}
	res, err := e.ExtClassify(0.2, 3)
	if err != nil {
		return g, err
	}
	ev := res.Evaluation
	g.Total = ev.Total
	g.Accuracy = floatBits(ev.Accuracy)
	g.MajorityBaseline = floatBits(ev.MajorityBaseline)
	regions := make([]recipedb.Region, 0, len(ev.PerRegion))
	for r := range ev.PerRegion {
		regions = append(regions, r)
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })
	for _, r := range regions {
		m := ev.PerRegion[r]
		row := classifyGoldenRegion{
			Region:    r.Code(),
			Support:   m.Support,
			Precision: floatBits(m.Precision),
			Recall:    floatBits(m.Recall),
			F1:        floatBits(m.F1),
			Confusion: map[string]int{},
		}
		for pred, n := range ev.Confusion[r] {
			row.Confusion[pred.Code()] = n
		}
		g.Regions = append(g.Regions, row)
	}
	return g, nil
}

func TestExtClassifyMatchesPinnedGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/classify_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want classifyGoldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got, err := computeClassifyGolden(testEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scale != want.Scale || got.Seed != want.Seed {
		t.Fatalf("TestOptions() = (%g, %d), golden was generated at (%g, %d)", got.Scale, got.Seed, want.Scale, want.Seed)
	}
	if got.Total != want.Total || got.Accuracy != want.Accuracy || got.MajorityBaseline != want.MajorityBaseline {
		t.Errorf("evaluation drifted from the pinned golden: total %d accuracy %s baseline %s, want %d %s %s",
			got.Total, got.Accuracy, got.MajorityBaseline, want.Total, want.Accuracy, want.MajorityBaseline)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%d regions, golden has %d", len(got.Regions), len(want.Regions))
	}
	for i := range want.Regions {
		if !reflect.DeepEqual(got.Regions[i], want.Regions[i]) {
			t.Errorf("region row %d drifted from the pinned golden:\n got %+v\nwant %+v", i, got.Regions[i], want.Regions[i])
		}
	}
}
