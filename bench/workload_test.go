//go:build linux

package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/query"
)

func testVocab(t *testing.T) *vocab {
	t.Helper()
	cfg := flavor.DefaultConfig()
	cfg.Seed = corpusSeed
	catalog, err := flavor.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return newVocab(catalog)
}

func serveWorkloads() []*workload {
	var out []*workload
	for i := range workloads {
		if len(workloads[i].mix) > 0 {
			out = append(out, &workloads[i])
		}
	}
	return out
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	v := testVocab(t)
	for _, w := range serveWorkloads() {
		a := sequenceDigest(w, v, 1, w.clients, 2000)
		if b := sequenceDigest(w, v, 1, w.clients, 2000); a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", w.name, a, b)
		}
		if c := sequenceDigest(w, v, 2, w.clients, 2000); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest", w.name)
		}
	}
}

// A minute of the fastest cold traffic seen is under 150 000 statements;
// none may repeat, across clients, or a cache could serve it.
func TestUniqueStatementsNeverRepeat(t *testing.T) {
	v := testVocab(t)
	for _, name := range []string{"serve_read_cold", "serve_mixed"} {
		w, _ := findWorkload(name)
		seen := map[string]bool{}
		for c := 0; c < w.clients; c++ {
			g := newGenerator(w, v, 7, c, w.clients)
			for i := 0; i < 150000; i++ {
				o := g.next()
				if o.kind != kindUniqueQuery {
					continue
				}
				if seen[o.stmt] {
					t.Fatalf("%s: client %d repeats %q at op %d", name, c, o.stmt, i)
				}
				seen[o.stmt] = true
			}
		}
		for _, s := range v.hotStmts {
			if seen[s] {
				t.Errorf("%s: unique statement equals hot statement %q", name, s)
			}
		}
	}
}

// The hot working set has to fit the caches it is meant to sit in, and
// every generated statement has to be one the engine accepts.
func TestHotWorkingSetFitsTheCaches(t *testing.T) {
	if hotStatements >= query.DefaultPlanCacheCapacity {
		t.Errorf("%d hot statements do not fit a plan cache of %d", hotStatements, query.DefaultPlanCacheCapacity)
	}
	env, err := experiments.NewEnv(experiments.TestOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := newVocab(env.Catalog)
	if len(v.hotStmts) != hotStatements || len(v.hotIDs) != hotRecipes || len(v.terms) < hotTerms || len(v.profiled) < hotPairings {
		t.Fatalf("hot sets are short: %d statements, %d ids, %d terms, %d profiled names",
			len(v.hotStmts), len(v.hotIDs), len(v.terms), len(v.profiled))
	}
	engine := query.NewEngine(env.Store, env.Analyzer)
	distinct := map[string]bool{}
	var bytes int64
	for _, s := range v.hotStmts {
		distinct[s] = true
		res, err := engine.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		// Every hot statement is an aggregate or carries a LIMIT, so its
		// result does not grow with the corpus.
		if len(res.Rows) > 30 {
			t.Errorf("%s: %d rows; hot results must stay small at any scale", s, len(res.Rows))
		}
		bytes += int64(len(s)) + 64
		for _, row := range res.Rows {
			for _, cell := range row {
				bytes += int64(len(cell.String())) + 32
			}
		}
	}
	if len(distinct) != hotStatements {
		t.Errorf("only %d of %d hot statements are distinct", len(distinct), hotStatements)
	}
	if bytes > query.DefaultResultCacheBytes/8 {
		t.Errorf("hot results take about %d bytes, more than an eighth of the %d byte result cache", bytes, query.DefaultResultCacheBytes)
	}
	w, _ := findWorkload("serve_read_cold")
	g := newGenerator(w, v, 3, 0, w.clients)
	for i := 0; i < 3000; i++ {
		if o := g.next(); o.kind == kindUniqueQuery {
			if _, err := engine.Run(o.stmt); err != nil {
				t.Fatalf("%s: %v", o.stmt, err)
			}
		}
	}
}

func TestMixSharesMatchTheTable(t *testing.T) {
	v := testVocab(t)
	const n = 200000
	for _, w := range serveWorkloads() {
		total := 0
		for _, m := range w.mix {
			total += m.pct
		}
		if total != 100 {
			t.Errorf("%s: shares sum to %d", w.name, total)
		}
		var counts [numKinds]int
		g := newGenerator(w, v, 5, 0, w.clients)
		for i := 0; i < n; i++ {
			counts[g.next().kind]++
		}
		for _, m := range w.mix {
			got := 100 * float64(counts[m.kind]) / n
			if math.Abs(got-float64(m.pct)) > 1 {
				t.Errorf("%s: %s is %.2f%% of ops, table says %d%%", w.name, kindNames[m.kind], got, m.pct)
			}
		}
	}
}

// The generator names a client's recipes by position in the list of ids
// it created; the positions must exist when every write succeeds.
func TestOwnListPositionsExist(t *testing.T) {
	v := testVocab(t)
	for _, name := range []string{"serve_write_durable", "serve_mixed"} {
		w, _ := findWorkload(name)
		g := newGenerator(w, v, 11, 1, w.clients)
		own := 0
		for i := 0; i < 100000; i++ {
			o := g.next()
			switch o.kind {
			case kindDelete:
				if o.own >= own {
					t.Fatalf("%s op %d: delete of position %d, list has %d", name, i, o.own, own)
				}
				own--
			case kindUpsert, kindBatch:
				inserts := 0
				distinct := map[int]bool{}
				for _, it := range o.items {
					if it.own >= own {
						t.Fatalf("%s op %d: replace of position %d, list has %d", name, i, it.own, own)
					}
					if it.own < 0 {
						inserts++
					} else if distinct[it.own] {
						t.Fatalf("%s op %d: position %d twice in one batch", name, i, it.own)
					}
					distinct[it.own] = true
				}
				own += inserts
			}
		}
		if own != g.own {
			t.Errorf("%s: generator models %d own recipes, replay gives %d", name, g.own, own)
		}
	}
}

// BENCHMARK.json and the program must name the same things.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i][0] || m.Unit != perLayer[i][1] {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json, %s (%s) in the program",
				i, m.Name, m.Unit, perLayer[i][0], perLayer[i][1])
		}
	}
	setupBound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has bound %g, above setup_s's %g", m.Name, m.Bound, setupBound)
		}
	}
}
