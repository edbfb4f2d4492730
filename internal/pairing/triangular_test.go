package pairing

import (
	"reflect"
	"sort"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
)

// denseReference recomputes the full n×n shared-compound matrix the slow
// way, straight from profile intersections, as the oracle for the packed
// triangular storage.
func denseReference(catalog *flavor.Catalog) []int32 {
	n := catalog.Len()
	dense := make([]int32, n*n)
	for i := 0; i < n; i++ {
		pi := catalog.Profile(flavor.ID(i))
		for j := i + 1; j < n; j++ {
			s := int32(pi.IntersectionCount(catalog.Profile(flavor.ID(j))))
			dense[i*n+j] = s
			dense[j*n+i] = s
		}
	}
	return dense
}

// TestTriangularMatchesDenseReference is the property test backing the
// dense→triangular migration: across randomized catalogs (different
// seeds and universe sizes), every Shared lookup — both argument orders
// and the diagonal — must match a naive dense matrix built directly
// from profile intersections.
func TestTriangularMatchesDenseReference(t *testing.T) {
	cfgs := []flavor.Config{}
	for _, seed := range []uint64{1, 99, 20180416} {
		cfg := flavor.DefaultConfig()
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	small := flavor.DefaultConfig()
	small.Seed = 7
	small.NumMolecules = 192
	small.BackboneSize = 16
	small.MaxProfile = 96
	cfgs = append(cfgs, small)

	for _, cfg := range cfgs {
		catalog, err := flavor.Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		a := NewAnalyzer(catalog)
		dense := denseReference(catalog)
		n := catalog.Len()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := a.Shared(flavor.ID(i), flavor.ID(j)), int(dense[i*n+j]); got != want {
					t.Fatalf("seed %d molecules %d: Shared(%d,%d) = %d, dense = %d",
						cfg.Seed, cfg.NumMolecules, i, j, got, want)
				}
			}
		}
	}
}

// TestParallelConstructionMatchesSerial pins the parallel row-chunk pool
// to the serial build: the packed triangle must be identical for any
// worker count.
func TestParallelConstructionMatchesSerial(t *testing.T) {
	serial := NewAnalyzerParallel(testCatalog, 1)
	for _, workers := range []int{2, 3, 8, 64} {
		par := NewAnalyzerParallel(testCatalog, workers)
		if !reflect.DeepEqual(serial.tri, par.tri) {
			t.Fatalf("workers=%d: parallel triangle differs from serial", workers)
		}
		if !reflect.DeepEqual(serial.triRow, par.triRow) {
			t.Fatalf("workers=%d: row index differs from serial", workers)
		}
	}
}

// referenceTopPartners is the pre-heap implementation: materialize every
// candidate and fully sort. The bounded-heap version must reproduce it
// exactly, including the ties-break-by-ascending-ID contract.
func referenceTopPartners(a *Analyzer, id flavor.ID, k int) []Partner {
	if k <= 0 || int(id) < 0 || int(id) >= a.n || !a.hasProfile[id] {
		return nil
	}
	out := make([]Partner, 0, a.n-1)
	for j := 0; j < a.n; j++ {
		if j == int(id) || !a.hasProfile[j] {
			continue
		}
		out = append(out, Partner{Partner: flavor.ID(j), Shared: a.Shared(id, flavor.ID(j))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shared != out[j].Shared {
			return out[i].Shared > out[j].Shared
		}
		return out[i].Partner < out[j].Partner
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// TestTopPartnersMatchesFullSortReference locks the heap-based partial
// selection to the full-sort reference across a spread of k, including
// k past the candidate count.
func TestTopPartnersMatchesFullSortReference(t *testing.T) {
	for _, name := range []string{"tomato", "basil", "butter"} {
		id := lookup(t, name)
		for _, k := range []int{1, 2, 5, 17, 100, testAnalyzer.n - 1, testAnalyzer.n + 50} {
			got := testAnalyzer.TopPartners(id, k)
			want := referenceTopPartners(testAnalyzer, id, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: heap selection diverges from full sort\n got[:5]=%v\nwant[:5]=%v",
					name, k, head(got, 5), head(want, 5))
			}
		}
	}
}

// TestTopPartnersTiesBreakByID is the explicit regression for the
// documented tie contract: equal Shared counts must order by ascending
// ingredient ID, at every k that slices through a tie group.
func TestTopPartnersTiesBreakByID(t *testing.T) {
	id := lookup(t, "tomato")
	full := referenceTopPartners(testAnalyzer, id, testAnalyzer.n)
	// Find a tie group to slice through.
	tieAt := -1
	for i := 1; i < len(full); i++ {
		if full[i].Shared == full[i-1].Shared {
			tieAt = i
			break
		}
	}
	if tieAt < 0 {
		t.Skip("catalog produced no tied shared counts for tomato")
	}
	for _, k := range []int{tieAt, tieAt + 1} {
		got := testAnalyzer.TopPartners(id, k)
		if len(got) != k {
			t.Fatalf("k=%d: got %d partners", k, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Shared > got[i-1].Shared {
				t.Fatalf("k=%d: not sorted by shared desc at %d", k, i)
			}
			if got[i].Shared == got[i-1].Shared && got[i].Partner <= got[i-1].Partner {
				t.Fatalf("k=%d: tie at %d not broken by ascending ID: %v then %v",
					k, i, got[i-1], got[i])
			}
		}
		if !reflect.DeepEqual(got, full[:k]) {
			t.Fatalf("k=%d slices the tie group differently than the reference", k)
		}
	}
}

func head(ps []Partner, n int) []Partner {
	if len(ps) < n {
		return ps
	}
	return ps[:n]
}

// buildLargeStore synthesizes a cuisine big enough (≥256 recipes) to
// push ScoreCuisineParallel off its small-cuisine serial fallback.
func buildLargeStore(t *testing.T) (*recipedb.Store, *recipedb.Cuisine) {
	t.Helper()
	s := recipedb.NewStore(testCatalog)
	src := rng.New(31337)
	n := testCatalog.Len()
	for r := 0; r < 600; r++ {
		size := 3 + src.Intn(8)
		seen := map[flavor.ID]bool{}
		ing := make([]flavor.ID, 0, size)
		for len(ing) < size {
			id := flavor.ID(src.Intn(n))
			if !seen[id] {
				seen[id] = true
				ing = append(ing, id)
			}
		}
		if _, err := s.Add("r", recipedb.France, recipedb.AllRecipes, ing); err != nil {
			t.Fatal(err)
		}
	}
	return s, s.BuildCuisine(recipedb.France)
}

// TestScoreCuisineParallelBitIdentical verifies the parallel cuisine
// score reproduces CuisineScore bit for bit at several worker counts.
func TestScoreCuisineParallelBitIdentical(t *testing.T) {
	store, c := buildLargeStore(t)
	wantMean, wantN := testAnalyzer.CuisineScore(store, c)
	for _, workers := range []int{0, 1, 2, 7, 32} {
		mean, n := testAnalyzer.ScoreCuisineParallel(store, c, workers)
		if mean != wantMean || n != wantN {
			t.Fatalf("workers=%d: (%v, %d) != serial (%v, %d)", workers, mean, n, wantMean, wantN)
		}
	}
}

// TestContributionsParallelBitIdentical verifies the fanned-out
// leave-one-out sweep reproduces the serial Contributions exactly.
func TestContributionsParallelBitIdentical(t *testing.T) {
	store, c := buildLargeStore(t)
	want := testAnalyzer.Contributions(store, c)
	for _, workers := range []int{0, 2, 16} {
		got := testAnalyzer.ContributionsParallel(store, c, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: parallel contributions diverge from serial", workers)
		}
	}
}
