// Benchmark harness: one benchmark per table and figure of the paper,
// plus the ablation benches. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks operate on a shared small-scale environment (5% corpus) so
// per-iteration costs measure algorithmic work, not setup. The full
// paper-scale regeneration path is exercised by cmd/experiments.
package culinary

import (
	"fmt"
	"runtime"
	"testing"

	"culinary/internal/alias"
	"culinary/internal/bitset"
	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/query"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
	"culinary/internal/synth"
)

var benchEnv = func() *experiments.Env {
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		panic(err)
	}
	return env
}()

// BenchmarkTable1 measures regenerating the Table 1 statistics (per
// region cuisine construction and counting).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := benchEnv.Table1()
		if len(rows) != recipedb.NumMajorRegions+1 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig2 measures the category-usage heatmap computation.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchEnv.Fig2()
		if len(h.Values) == 0 {
			b.Fatal("empty heatmap")
		}
	}
}

// BenchmarkFig3a measures the recipe-size distribution sweep.
func BenchmarkFig3a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchEnv.Fig3a()
		if len(res) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig3b measures the rank-frequency popularity sweep.
func BenchmarkFig3b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchEnv.Fig3b()
		if len(res) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig4 measures the food-pairing null-model machinery: each
// iteration draws and scores one randomized recipe for the Italian
// cuisine under each of the paper's four models.
func BenchmarkFig4(b *testing.B) {
	c := benchEnv.Store.BuildCuisine(recipedb.Italy)
	for _, m := range pairing.AllModels() {
		b.Run(m.String(), func(b *testing.B) {
			sampler, err := pairing.NewNullSampler(benchEnv.Analyzer, benchEnv.Store, c, m, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := benchEnv.Analyzer.RecipeScore(sampler.Draw()); !ok {
					b.Fatal("unscorable draw")
				}
			}
		})
	}
	// End-to-end cell: one full Compare (2,000 nulls) per iteration.
	b.Run("CompareEndToEnd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pairing.Compare(benchEnv.Analyzer, benchEnv.Store, c,
				pairing.RandomModel, 2000, rng.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4Region measures one region's whole Fig 4 row — cuisine,
// observed score, one null pool and the four controls at 10,000 draws
// each — as experiments schedules it: four tasks on GOMAXPROCS workers.
// The sub-benchmarks pin the worker count themselves rather than leave
// it to -cpu, whose name suffix benchjson strips: both rows reach
// BENCH_paper.json under their own names, and CI fails when the cpu2 row
// is not faster than the cpu1 row.
func BenchmarkFig4Region(b *testing.B) {
	env := *benchEnv
	env.NullRecipes = 10000
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("cpu%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := env.Fig4Region(recipedb.Italy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNullMoments measures the fused draw→score loop the Fig 4
// controls run at N = 100,000: each iteration accumulates the moments
// of 10,000 randomized Italian recipes under one model, on a sampler
// built once.
func BenchmarkNullMoments(b *testing.B) {
	const draws = 10000
	c := benchEnv.Store.BuildCuisine(recipedb.Italy)
	for _, m := range pairing.AllModels() {
		b.Run(m.String(), func(b *testing.B) {
			sampler, err := pairing.NewNullSampler(benchEnv.Analyzer, benchEnv.Store, c, m, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, n := sampler.NullMoments(draws); n == 0 {
					b.Fatal("no scorable draw")
				}
			}
			b.ReportMetric(float64(b.N)*draws/b.Elapsed().Seconds(), "recipes/s")
		})
	}
}

// BenchmarkFig5 measures the leave-one-out ingredient-contribution sweep
// for one cuisine (every ingredient, cached pair sums).
func BenchmarkFig5(b *testing.B) {
	c := benchEnv.Store.BuildCuisine(recipedb.Italy)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if contribs := benchEnv.Analyzer.Contributions(benchEnv.Store, c); len(contribs) == 0 {
			b.Fatal("no contributions")
		}
	}
}

// BenchmarkExtTuples measures higher-order tuple scoring (k=3) on a
// typical nine-ingredient recipe.
func BenchmarkExtTuples(b *testing.B) {
	var recipe []flavor.ID
	benchEnv.Store.ForEachInRegion(recipedb.Italy, func(r *recipedb.Recipe) {
		if recipe == nil && r.Size() == 9 {
			recipe = r.Ingredients
		}
	})
	if recipe == nil {
		b.Skip("no size-9 recipe")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := benchEnv.Analyzer.TupleScore(recipe, 3); !ok {
			b.Fatal("unscorable")
		}
	}
}

// BenchmarkExtRobustness measures one bootstrap replicate of a cuisine's
// mean pairing score.
func BenchmarkExtRobustness(b *testing.B) {
	c := benchEnv.Store.BuildCuisine(recipedb.Italy)
	scores := make([]float64, 0, len(c.RecipeIDs))
	for _, rid := range c.RecipeIDs {
		if v, ok := benchEnv.Analyzer.RecipeScore(benchEnv.Store.Recipe(rid).Ingredients); ok {
			scores = append(scores, v)
		}
	}
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Bootstrap(scores, 10, 0.95, src, stats.MeanStat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtEvolution measures generating one 100-recipe cuisine with
// the copy-mutate evolution model.
func BenchmarkExtEvolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := synth.GenerateSingleRegion(benchEnv.Analyzer, recipedb.Greece,
			synth.SingleRegionConfig{Seed: uint64(i + 1), Recipes: 100, Beta: 0.5})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtAliasing measures resolving one noisy phrase through the
// full §IV.A pipeline.
func BenchmarkExtAliasing(b *testing.B) {
	al := alias.New(benchEnv.Catalog)
	ps := synth.NewPhraseSynthesizer(benchEnv.Catalog, synth.DefaultPhraseConfig())
	batch := ps.RenderBatch(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Resolve(batch[i%len(batch)].Phrase)
	}
}

// BenchmarkCorpusGeneration measures generating the calibrated synthetic
// corpus, calibration included, at TestConfig's 12% scale (test) and at
// the paper's full scale (full: 45,772 recipes, what experiments.NewEnv
// and the paper_figs setup pay).
func BenchmarkCorpusGeneration(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  synth.Config
	}{{"test", synth.TestConfig()}, {"full", synth.DefaultConfig()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				store, err := synth.Generate(benchEnv.Analyzer, bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(store.Len()), "recipes")
			}
		})
	}
}

// BenchmarkPlanCache measures the query engine's plan cache on a hot
// dashboard statement: Run (cached Parse+bind) against re-planning the
// same statement on every call.
func BenchmarkPlanCache(b *testing.B) {
	const stmt = "SELECT name FROM recipes WHERE region = 'ITA' AND size >= 3 LIMIT 1"
	b.Run("CachedRun", func(b *testing.B) {
		engine := query.NewEngine(benchEnv.Store, benchEnv.Analyzer)
		if _, err := engine.Run(stmt); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Run(stmt); err != nil {
				b.Fatal(err)
			}
		}
		cs := engine.CacheStats()
		b.ReportMetric(float64(cs.Hits)/float64(cs.Hits+cs.Misses), "hit-rate")
	})
	b.Run("ReplanEachCall", func(b *testing.B) {
		engine := query.NewEngine(benchEnv.Store, benchEnv.Analyzer)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q, err := query.Parse(stmt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benches ---

// BenchmarkAblationIntersection compares bitset popcount intersection
// against a map-set implementation for flavor-profile overlap — the
// justification for the bitset substrate.
func BenchmarkAblationIntersection(b *testing.B) {
	catalog := benchEnv.Catalog
	a1, _ := catalog.Lookup("tomato")
	a2, _ := catalog.Lookup("chicken stock") // large pooled profile
	p1, p2 := catalog.Profile(a1), catalog.Profile(a2)

	b.Run("Bitset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if p1.IntersectionCount(p2) < 0 {
				b.Fatal("impossible")
			}
		}
	})
	b.Run("MapSet", func(b *testing.B) {
		m1 := make(map[int]struct{})
		for _, v := range p1.Members() {
			m1[v] = struct{}{}
		}
		m2 := p2.Members()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, v := range m2 {
				if _, ok := m1[v]; ok {
					n++
				}
			}
			if n < 0 {
				b.Fatal("impossible")
			}
		}
	})
}

// BenchmarkAblationPairCache compares recipe scoring through the
// precomputed pair-sharing matrix against recomputing profile
// intersections on the fly — the justification for the Analyzer cache.
func BenchmarkAblationPairCache(b *testing.B) {
	var recipe []flavor.ID
	benchEnv.Store.ForEachInRegion(recipedb.Italy, func(r *recipedb.Recipe) {
		if recipe == nil && r.Size() >= 9 {
			recipe = r.Ingredients
		}
	})
	if recipe == nil {
		b.Skip("no large recipe")
	}
	catalog := benchEnv.Catalog

	b.Run("CachedMatrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := benchEnv.Analyzer.RecipeScore(recipe); !ok {
				b.Fatal("unscorable")
			}
		}
	})
	b.Run("OnTheFly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum, pairs float64
			for x := 0; x < len(recipe); x++ {
				px := catalog.Profile(recipe[x])
				for y := x + 1; y < len(recipe); y++ {
					sum += float64(px.IntersectionCount(catalog.Profile(recipe[y])))
					pairs++
				}
			}
			if pairs == 0 {
				b.Fatal("no pairs")
			}
		}
	})
}

// BenchmarkAblationWeightedSampling compares the Vose alias sampler used
// by the Frequency model against linear cumulative-scan sampling.
func BenchmarkAblationWeightedSampling(b *testing.B) {
	c := benchEnv.Store.BuildCuisine(recipedb.USA)
	weights := make([]float64, len(c.UniqueIngredients))
	var total float64
	for i, id := range c.UniqueIngredients {
		weights[i] = float64(c.IngredientFreq[id])
		total += weights[i]
	}
	b.Run("VoseAlias", func(b *testing.B) {
		w, err := rng.NewWeighted(weights)
		if err != nil {
			b.Fatal(err)
		}
		src := rng.New(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if w.Sample(src) < 0 {
				b.Fatal("impossible")
			}
		}
	})
	b.Run("LinearScan", func(b *testing.B) {
		src := rng.New(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := src.Float64() * total
			idx := 0
			for j, w := range weights {
				r -= w
				if r <= 0 {
					idx = j
					break
				}
			}
			if idx < 0 {
				b.Fatal("impossible")
			}
		}
	})
}

// BenchmarkAnalyzerConstruction measures building the full pair-sharing
// triangle (676×676 profile intersections, packed upper-triangular)
// with the default GOMAXPROCS worker pool.
func BenchmarkAnalyzerConstruction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if a := pairing.NewAnalyzer(benchEnv.Catalog); a == nil {
			b.Fatal("nil analyzer")
		}
	}
}

// BenchmarkAnalyzerConstructionWorkers sweeps the construction worker
// pool, pinning the parallel-speedup curve (workers=1 is the serial
// baseline; the top sub-bench matches BenchmarkAnalyzerConstruction).
func BenchmarkAnalyzerConstructionWorkers(b *testing.B) {
	sweep := []int{1, 2, 4, 8}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 && p != 4 && p != 8 {
		sweep = append(sweep, p)
	}
	for _, workers := range sweep {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if a := pairing.NewAnalyzerParallel(benchEnv.Catalog, workers); a == nil {
					b.Fatal("nil analyzer")
				}
			}
		})
	}
}

// BenchmarkTopPartners measures the bounded-heap partial selection for
// small k against the full candidate row (the k ≪ n interactive path).
func BenchmarkTopPartners(b *testing.B) {
	id, ok := benchEnv.Catalog.Lookup("tomato")
	if !ok {
		b.Fatal("no tomato")
	}
	for _, k := range []int{5, 25, 200} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p := benchEnv.Analyzer.TopPartners(id, k); len(p) != k {
					b.Fatal("short result")
				}
			}
		})
	}
}

// BenchmarkBitsetIntersectionSizes profiles intersection cost across
// profile sizes, documenting the word-count scaling of the bitset.
func BenchmarkBitsetIntersectionSizes(b *testing.B) {
	for _, universe := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("universe%d", universe), func(b *testing.B) {
			src := rng.New(uint64(universe))
			s1, s2 := bitset.New(universe), bitset.New(universe)
			for i := 0; i < universe/8; i++ {
				s1.Add(src.Intn(universe))
				s2.Add(src.Intn(universe))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s1.IntersectionCount(s2) < 0 {
					b.Fatal("impossible")
				}
			}
		})
	}
}

// BenchmarkBitsetKernelBatch compares the row-vs-rows batched kernel
// against per-pair IntersectionCount calls across universe and batch
// sizes — the kernel-shape ablation behind the analyzer's parallel
// construction. Reported per batch, so Batched vs Pairwise lines are
// directly comparable.
func BenchmarkBitsetKernelBatch(b *testing.B) {
	for _, universe := range []int{256, 1104, 4096} {
		for _, batch := range []int{16, 256} {
			src := rng.New(uint64(universe * batch))
			row := bitset.New(universe)
			for i := 0; i < universe/8; i++ {
				row.Add(src.Intn(universe))
			}
			targets := make([]*bitset.Set, batch)
			for t := range targets {
				targets[t] = bitset.New(universe)
				for i := 0; i < universe/8; i++ {
					targets[t].Add(src.Intn(universe))
				}
			}
			out := make([]int32, batch)
			b.Run(fmt.Sprintf("universe%d/batch%d/Batched", universe, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					row.IntersectionCountMany(targets, out)
				}
			})
			b.Run(fmt.Sprintf("universe%d/batch%d/Pairwise", universe, batch), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for t := range targets {
						out[t] = int32(row.IntersectionCount(targets[t]))
					}
				}
			})
		}
	}
}
