package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// layer is a module of the repository, plus "transport" for loopback
// and net/http: the rows of the budget table.
type layer uint8

const (
	layerTransport layer = iota
	layerHTTPMW
	layerServer
	layerQuery
	layerRecipeDB
	layerSearch
	layerStorage
	layerPairing
	layerExperiments
	numLayers
)

var layerNames = [numLayers]string{
	"transport", "httpmw", "server", "query", "recipedb", "search", "storage", "pairing", "experiments",
}

// spanKind names one boundary the traced run records.
type spanKind uint8

const (
	spanHandler       spanKind = iota // the whole in-process request: Server.Handler().ServeHTTP
	spanTransport                     // the same bytes through loopback and net/http to a handler that does nothing
	spanAdmit                         // the httpmw chain around a handler that does nothing
	spanQueryParse                    // query.Parse
	spanQueryRun                      // Engine.RunContext on a twin engine
	spanViewRead                      // Store.Read + View.Recipe
	spanBuildCuisine                  // Store.BuildCuisine
	spanSearchQuery                   // Index.Search on a twin index
	spanSearchPatch                   // Index.ApplyBatch on the twin index, one captured batch
	spanWriteBatch                    // the BatchBackend seam: storage group commit + fsync
	spanCommit                        // end of WriteBatch to the last subscriber: corpus apply + subscribers
	spanPaperRegion                   // one region's analysis rebuilt from public calls
	spanObservedScore                 // Analyzer.ScoreCuisineParallel
	spanNullMoments                   // NewNullSampler + NullMoments (Random control)
	spanModelScore                    // pairing.ModelScore, one null model
	spanContributions                 // Analyzer.ContributionsParallel
	spanDescriptive                   // Table1 + Fig2 + Fig3a + Fig3b
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct {
	name  string
	layer layer
}{
	{"server.handler", layerServer},
	{"transport.roundtrip", layerTransport},
	{"httpmw.admit", layerHTTPMW},
	{"query.parse", layerQuery},
	{"query.run", layerQuery},
	{"recipedb.view_read", layerRecipeDB},
	{"recipedb.build_cuisine", layerRecipeDB},
	{"search.query", layerSearch},
	{"search.patch", layerSearch},
	{"storage.write_batch", layerStorage},
	{"recipedb.commit", layerRecipeDB},
	{"paper.region", layerExperiments},
	{"pairing.observed_score", layerPairing},
	{"pairing.null_moments", layerPairing},
	{"pairing.model_score", layerPairing},
	{"pairing.contributions", layerPairing},
	{"experiments.descriptive", layerExperiments},
}

// span is one timed call into a layer. Spans of one op share its op
// number; parent is the id of the span that caused this one (0 for an
// op's root). A probe is a replay of the layer's work next to the
// request rather than a piece of the request itself: the traced run
// may only time public functions from outside, so it calls them again
// with the same arguments.
type span struct {
	id, parent uint32
	op         uint32
	kind       spanKind
	class      opClass
	probe      bool
	start, end time.Duration // since the recorder's epoch
	n          int           // records, recipes or mutations the call handled
}

func (s *span) dur() time.Duration { return s.end - s.start }

// recorder collects spans in memory; they are written out when the
// run ends. One recorder is shared by all loops of a run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add stores a finished span and returns its id; a span that comes
// with an id (reserved through newID before its children were
// recorded) keeps it.
func (r *recorder) add(s span) uint32 {
	r.mu.Lock()
	if s.id == 0 {
		r.next++
		s.id = r.next
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.id
}

// newID reserves an id. Ops and spans draw from one counter: an op's
// number is the id of its root span.
func (r *recorder) newID() uint32 {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, `{"name":%q,"layer":%q,"id":%d,"parent":%d,"op":%d,"class":%q,"probe":%t,"start_ns":%d,"end_ns":%d,"n":%d}`+"\n",
			spanInfo[s.kind].name, layerNames[spanInfo[s.kind].layer], s.id, s.parent, s.op, classNames[s.class],
			s.probe, s.start.Nanoseconds(), s.end.Nanoseconds(), s.n)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opBudget is where one traced op's time went: per layer, the time
// that layer itself was busy (a span's duration minus what its
// children cover).
type opBudget struct {
	class opClass
	self  [numLayers]time.Duration
}

// budgetRow is one class's line-up of layer self times against the
// latency of the same class in the untraced end-to-end run.
type budgetRow struct {
	class    opClass
	ops      int
	selfUs   [numLayers]float64 // p50 over the class's traced ops
	sumUs    float64
	e2eUs    float64 // p50 of the untraced run; 0 when the class was not seen there
	coverage float64 // sumUs / e2eUs
}

func budgetRows(budgets []opBudget, e2eUs func(opClass) float64) []budgetRow {
	var rows []budgetRow
	for class := opClass(0); class < numClasses; class++ {
		var per [numLayers][]float64
		n := 0
		for i := range budgets {
			if budgets[i].class != class {
				continue
			}
			n++
			for l := layer(0); l < numLayers; l++ {
				per[l] = append(per[l], float64(budgets[i].self[l])/float64(time.Microsecond))
			}
		}
		if n == 0 {
			continue
		}
		row := budgetRow{class: class, ops: n, e2eUs: e2eUs(class)}
		for l := layer(0); l < numLayers; l++ {
			row.selfUs[l] = median(per[l])
			row.sumUs += row.selfUs[l]
		}
		if row.e2eUs > 0 {
			row.coverage = row.sumUs / row.e2eUs
		}
		rows = append(rows, row)
	}
	return rows
}

// writeBudget renders the "where the time goes" table.
func writeBudget(path, workload string, rows []budgetRow) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Where the time goes: %s\n\n", workload)
	b.WriteString("Per op class: each layer's own time (median over the traced ops, µs), its share of\n" +
		"their sum, and the sum against the median latency of the same class in the untraced\n" +
		"end-to-end run. The budget holds when sum / end-to-end is between 0.8 and 1.2.\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "\n## %s (%d traced ops)\n\n| layer | self µs p50 | share |\n|---|---:|---:|\n", row.class, row.ops)
		type kv struct {
			l  layer
			us float64
		}
		var kvs []kv
		for l := layer(0); l < numLayers; l++ {
			if row.selfUs[l] > 0 {
				kvs = append(kvs, kv{l, row.selfUs[l]})
			}
		}
		sort.Slice(kvs, func(i, j int) bool { return kvs[i].us > kvs[j].us })
		for _, e := range kvs {
			fmt.Fprintf(&b, "| %s | %.1f | %.1f%% |\n", layerNames[e.l], e.us, 100*e.us/row.sumUs)
		}
		fmt.Fprintf(&b, "| **sum** | %.1f | |\n| end to end, untraced | %.1f | |\n| sum / end to end | %.2f | |\n",
			row.sumUs, row.e2eUs, row.coverage)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// spanDurations returns the durations of every span of one kind in
// the unit given (time.Microsecond, time.Millisecond).
func spanDurations(spans []span, kind spanKind, unit time.Duration) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].kind == kind {
			out = append(out, float64(spans[i].dur())/float64(unit))
		}
	}
	return out
}
