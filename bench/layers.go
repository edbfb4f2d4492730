package main

import "fmt"

// perLayer lists every per-layer metric a traced run reports, in the
// order of BENCHMARK.json. A run reports all of them; a layer the
// workload never enters reports 0 (no time spent, nothing counted).
// README.md says which end-to-end metric each one should move.
var perLayer = func() [][2]string {
	m := [][2]string{
		{"transport.self_us", "us"},
		{"httpmw.admit_us", "us"},
		{"httpmw.refused", "count"},
		{"server.self_us", "us"},
		{"server.response_bytes", "B"},
		{"server.boot_ms", "ms"},
		{"query.run_us", "us"},
		{"query.parse_us", "us"},
		{"query.result_cache_hit_ratio", "ratio"},
		{"query.plan_cache_hit_ratio", "ratio"},
		{"query.rows_scanned_per_row", "ratio"},
		{"recipedb.view_read_us", "us"},
		{"recipedb.build_cuisine_ms", "ms"},
		{"recipedb.apply_self_us", "us"},
		{"recipedb.ops_per_batch", "ratio"},
		{"search.query_us", "us"},
		{"search.patch_us", "us"},
		{"search.build_ms", "ms"},
		{"storage.write_batch_us", "us"},
		{"storage.records_per_commit", "ratio"},
		{"storage.disk_bytes_per_user_byte", "ratio"},
		{"storage.open_ms", "ms"},
		{"storage.load_corpus_ms", "ms"},
		{"storage.get_us", "us"},
		{"derived.rebuilds", "count"},
		{"derived.rebuild_ms", "ms"},
		{"flavor.build_ms", "ms"},
		{"pairing.analyzer_build_ms", "ms"},
		{"synth.generate_ms", "ms"},
		{"pairing.observed_score_ms", "ms"},
		{"pairing.null_moments_ms", "ms"},
		{"pairing.null_recipes_per_s", "1/s"},
		{"pairing.contributions_ms", "ms"},
		{"experiments.descriptive_ms", "ms"},
		{"trace.overhead_share", "ratio"},
	}
	for c := classQuery; c <= classBatch; c++ {
		m = append(m, [2]string{"server.handler_us." + c.String(), "us"})
	}
	for c := opClass(0); c < numClasses; c++ {
		m = append(m, [2]string{"trace.coverage." + c.String(), "ratio"})
	}
	return m
}()

// layerMetrics is a traced run's metric set, complete from the start.
type layerMetrics struct {
	values map[string]metric
}

func newLayerMetrics() *layerMetrics {
	m := &layerMetrics{values: make(map[string]metric, len(perLayer))}
	for _, nu := range perLayer {
		m.values[nu[0]] = metric{Unit: nu[1]}
	}
	return m
}

// set records a value for a listed metric; a name outside the list is
// a bug in the benchmark, not an input error.
func (m *layerMetrics) set(name string, v float64) {
	cur, ok := m.values[name]
	if !ok {
		panic(fmt.Sprintf("bench: %s is not a per-layer metric", name))
	}
	cur.Value = v
	m.values[name] = cur
}
