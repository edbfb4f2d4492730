package main

import (
	"testing"

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
