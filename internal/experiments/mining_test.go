package experiments

import (
	"bytes"
	"strings"
	"testing"

	"culinary/internal/assoc"
	"culinary/internal/cluster"
	"culinary/internal/recipedb"
)

func TestExtClusterCoversAllRegions(t *testing.T) {
	res, err := testEnv.ExtCluster()
	if err != nil {
		t.Fatalf("ExtCluster: %v", err)
	}
	matchExtGolden(t, "cluster", res)
	if len(res.Regions) != recipedb.NumMajorRegions {
		t.Fatalf("clustered %d regions", len(res.Regions))
	}
	if res.Root.Size != len(res.Regions) {
		t.Errorf("dendrogram covers %d leaves, want %d", res.Root.Size, len(res.Regions))
	}
	// The cut partitions all leaves exactly once.
	seen := make(map[int]bool)
	for _, group := range res.Groups {
		for _, leaf := range group {
			if seen[leaf] {
				t.Fatalf("leaf %d in two groups", leaf)
			}
			seen[leaf] = true
		}
	}
	if len(seen) != len(res.Regions) {
		t.Errorf("cut covers %d of %d leaves", len(seen), len(res.Regions))
	}
	// Dendrogram text mentions every region code.
	tree := testEnv.ClusterDendrogram(res)
	for _, r := range res.Regions {
		if !strings.Contains(tree, r.Code()) {
			t.Errorf("dendrogram missing %s", r.Code())
		}
	}
}

func TestExtClusterSpiceCuisinesAreClose(t *testing.T) {
	// The calibrated spice-heavy cuisines (Fig 2: INSC, AFR) should sit
	// closer to each other than INSC sits to Scandinavia.
	res, err := testEnv.ExtCluster()
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[recipedb.Region]int, len(res.Regions))
	for i, r := range res.Regions {
		idx[r] = i
	}
	dClose, err := copheneticOf(res, idx[recipedb.IndianSubcontinent], idx[recipedb.Africa])
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := copheneticOf(res, idx[recipedb.IndianSubcontinent], idx[recipedb.Scandinavia])
	if err != nil {
		t.Fatal(err)
	}
	if dClose >= dFar {
		t.Errorf("INSC-AFR cophenetic %.3f not below INSC-SCND %.3f", dClose, dFar)
	}
}

func copheneticOf(res *ClusterResult, i, j int) (float64, error) {
	return cluster.CopheneticDistance(res.Root, i, j)
}

func TestExtRulesInvariants(t *testing.T) {
	res, err := testEnv.ExtRules(recipedb.Italy, assoc.Config{})
	if err != nil {
		t.Fatalf("ExtRules: %v", err)
	}
	matchExtGolden(t, "rules", res)
	if len(res.Levels) == 0 || len(res.Levels[0]) == 0 {
		t.Fatal("no frequent singletons")
	}
	// Apriori anti-monotonicity: the top support per level never grows
	// with size.
	prevTop := res.Levels[0][0].Support
	for k := 1; k < len(res.Levels); k++ {
		if len(res.Levels[k]) == 0 {
			continue
		}
		if res.Levels[k][0].Support > prevTop {
			t.Errorf("level %d top support %.3f exceeds level %d's %.3f",
				k+1, res.Levels[k][0].Support, k, prevTop)
		}
		prevTop = res.Levels[k][0].Support
	}
	for _, r := range res.Rules {
		if r.Confidence < res.Config.MinConfidence {
			t.Errorf("rule below confidence floor: %+v", r)
		}
		if r.Support < res.Config.MinSupport {
			t.Errorf("rule below support floor: %+v", r)
		}
		if r.Lift <= 0 {
			t.Errorf("non-positive lift: %+v", r)
		}
	}
	// Rules sorted by descending lift.
	for i := 1; i < len(res.Rules); i++ {
		if res.Rules[i].Lift > res.Rules[i-1].Lift {
			t.Error("rules not sorted by lift")
			break
		}
	}
}

func TestMiningRunnersRender(t *testing.T) {
	var buf bytes.Buffer
	r := &Runner{Env: testEnv, Out: &buf}
	for _, name := range []string{"clusters", "rules"} {
		if err := r.Run(name); err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Cuisine similarity", "Frequent ingredient itemsets", "association rules"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
