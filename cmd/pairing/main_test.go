package main

import (
	"bytes"
	"runtime"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
)

func TestContributorSignFollowsMeasuredZ(t *testing.T) {
	positive, negative := recipedb.Italy, recipedb.Region(-1)
	for _, r := range recipedb.MajorRegions() {
		if r.PairingSign() < 0 {
			negative = r
			break
		}
	}
	if positive.PairingSign() <= 0 || !negative.Valid() {
		t.Fatal("fixture regions do not have the paper signs the test needs")
	}
	cases := []struct {
		z    float64
		r    recipedb.Region
		want int
	}{
		{+3.2, positive, +1},
		{-3.2, positive, -1}, // measured against the paper: the measurement wins
		{+0.4, negative, +1},
		{-0.4, negative, -1},
		{0, positive, +1}, // only a zero Z falls back to the paper
		{0, negative, -1},
		{0, recipedb.World, +1}, // no paper sign either
	}
	for _, tc := range cases {
		if got := contributorSign(tc.z, tc.r); got != tc.want {
			t.Errorf("contributorSign(%v, %s) = %d, want %d", tc.z, tc.r.Code(), got, tc.want)
		}
	}
}

// TestAllRegionOutputIgnoresWorkerCount: the 22-region sweep runs one
// task per region on GOMAXPROCS workers, and every region draws from a
// stream split off the seed by region, so the Z table and the
// contributor tables must be the same bytes on 1, 2 and 4 workers.
func TestAllRegionOutputIgnoresWorkerCount(t *testing.T) {
	env, err := experiments.NewEnv(experiments.Options{Scale: 0.05, NullRecipes: 1000, Seed: 20180416})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		if err := analyze(&out, env, recipedb.MajorRegions(), pairing.FrequencyModel, 2); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = out.Bytes()
			if bytes.Count(want, []byte("\n")) < 2*recipedb.NumMajorRegions {
				t.Fatalf("output is short:\n%s", want)
			}
		} else if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("output on %d workers differs from 1 worker's:\n%s\nwant:\n%s", procs, out.Bytes(), want)
		}
	}
}
