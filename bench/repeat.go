//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runRepeated runs every named workload n times, each run a fresh
// process on the next seed, exactly as the driver runs them, and
// prints per end-to-end metric the median, the quartiles and the
// interquartile spread as a share of the median. It fails when a
// spread exceeds half the metric's bound: a metric that moves that
// much between runs of the same code cannot show a regression of the
// size of its bound. setup_s is reported but exempt, as it is in the
// driver's check.
func runRepeated(spec *benchSpec, names []string, seed int64, seconds float64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var wide []string
	for _, name := range names {
		values := map[string][]float64{}
		for k := 0; k < n; k++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed+int64(k), 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", name, k, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("%s, run %d: result line: %w", name, k, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s, run %d: %d of %d ops failed", name, k, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %gs each\n", name, n, seed, seed+int64(n)-1, seconds)
		fmt.Printf("  %-14s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			q1, q3 := xs[0], xs[0]
			if len(xs) >= 2 {
				q1, q3 = quartiles(xs)
			}
			spread := relSpread(xs)
			mark := ""
			if spread > m.Bound/2 && m.Name != "setup_s" {
				mark = "  <- above half the bound"
				wide = append(wide, name+"/"+m.Name)
			}
			fmt.Printf("  %-14s %12.4f %12.4f %12.4f %7.1f%% %7.1f%%%s\n",
				m.Name, median(xs), q1, q3, 100*spread, 100*m.Bound, mark)
		}
	}
	if len(wide) > 0 {
		return fmt.Errorf("run-to-run spread above half the bound: %s", strings.Join(wide, ", "))
	}
	return nil
}
