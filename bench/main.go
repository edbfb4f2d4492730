//go:build linux

// Command bench is the repository's benchmark: the paper's pipeline and
// four API traffic mixes, measured end to end and, in a separate traced
// run, layer by layer. BENCHMARK.json at the repository root is its
// contract; README.md beside this file explains every metric.
//
//	go run -C bench . --workload NAME --seed N --seconds S --trace 0|1
//
// prints one result as the last line of standard output. Without
// --workload every workload runs in turn; with -repeat N each one runs
// N times on N seeds and the run-to-run spread is reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: every workload in turn)")
		seed    = flag.Int64("seed", 1, "seed of the generated request sequences")
		seconds = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		repeat  = flag.Int("repeat", 0, "run each workload this many times on consecutive seeds and report the spread")
		golden  = flag.Bool("write-golden", false, "paper_figs: write golden/paper_figs.sha256 instead of comparing with it")
		echo    = flag.String("echo", "", "internal: serve as the traced run's echo server on this address")
	)
	flag.Parse()
	if *echo != "" {
		fmt.Fprintln(os.Stderr, "bench:", runEcho(*echo))
		os.Exit(1)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *repeat, *golden); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, repeat int, writeGolden bool) error {
	h, err := newHarness()
	if err != nil {
		return err
	}
	defer h.close()
	h.writeGolden = writeGolden
	// A signal must not leave a server child or a scratch directory
	// behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(1)
	}()

	spec, err := loadSpec(h.root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	names := []string{name}
	if name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	if repeat > 0 {
		return runRepeated(spec, names, seed, seconds, repeat)
	}
	for _, n := range names {
		w, _ := findWorkload(n)
		res, err := h.runOne(w, seed, seconds, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if res.Attempted == 0 {
			return fmt.Errorf("%s: no op completed in the measured stretch", n)
		}
		if err := checkNames(spec, res, trace); err != nil {
			return err
		}
		printResult(w, seed, seconds, res)
	}
	return nil
}

// runOne runs one workload once and returns its result line.
func (h *harness) runOne(w *workload, seed int64, seconds float64, trace bool) (*result, error) {
	switch {
	case w.name == "paper_figs" && trace:
		return h.tracePaper(w, seed, seconds)
	case w.name == "paper_figs":
		return h.runPaper(w, seed, seconds)
	case trace:
		return h.traceServe(w, seed, seconds)
	default:
		return h.measureServe(w, seed, seconds)
	}
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// checkNames holds the program to its contract: a run reports exactly
// the metrics BENCHMARK.json lists for its kind, in the listed units.
func checkNames(spec *benchSpec, res *result, trace bool) error {
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	if len(want) != len(res.Metrics) {
		return fmt.Errorf("run reports %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s of BENCHMARK.json is not reported", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s is reported in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

// printResult writes the metrics by name for a reader, then the result
// line the driver parses.
func printResult(w *workload, seed int64, seconds float64, res *result) {
	fmt.Printf("workload %s  seed %d  measured %gs  closed loop, %d client(s), fsync per write (-db-sync)\n",
		w.name, seed, seconds, w.clientCount())
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-38s %14.4f %s\n", n, m.Value, m.Unit)
	}
	share := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("  %-38s %14.6f (%d of %d)\n", "failed_share", share, res.Failed, res.Attempted)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}
