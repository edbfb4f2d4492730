//go:build linux

package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// setupBoots is how often a run measures set-up; the median is
// reported, so one slow boot does not move setup_s.
const setupBoots = 3

// phase is the outcome of one measured stretch of traffic.
type phase struct {
	wall    time.Duration
	samples []sample      // ops completed inside the measured stretch
	cpu     time.Duration // CPU the program under test spent in it
	rssMB   float64       // its peak resident set at the end
	before  health        // its counters at the start and at the end
	after   health
}

// warmupShare of the measured time is spent, unmeasured, before it, so
// caches are full and lazy set-up is over when timing starts.
const warmupShare = 0.1

// drive runs one closed loop per step function for warm-up plus
// seconds. around is called at the start and at the end of the
// measured stretch to read the counters of the program under test. A
// loop keeps going past the end while pending(i) holds: work that has
// to finish for the output check, no longer measured.
func drive(steps []func(epoch time.Time) sample, seconds float64,
	around func(start bool) error, pending func(i int) bool) (*phase, error) {
	epoch := time.Now()
	warm := time.Duration(seconds * warmupShare * float64(time.Second))
	measured := time.Duration(seconds * float64(time.Second))

	var stop atomic.Bool
	perLoop := make([][]sample, len(steps))
	var wg sync.WaitGroup
	for i, step := range steps {
		wg.Add(1)
		go func(i int, step func(time.Time) sample) {
			defer wg.Done()
			for !stop.Load() || (pending != nil && pending(i)) {
				perLoop[i] = append(perLoop[i], step(epoch))
			}
		}(i, step)
	}
	finish := func() { stop.Store(true); wg.Wait() }

	time.Sleep(warm)
	if err := around(true); err != nil {
		finish()
		return nil, err
	}
	t0 := time.Since(epoch)
	time.Sleep(measured)
	t1 := time.Since(epoch)
	err := around(false)
	finish()
	if err != nil {
		return nil, err
	}

	p := &phase{wall: t1 - t0}
	for _, ss := range perLoop {
		for _, s := range ss {
			if end := s.start + s.dur; end >= t0 && end <= t1 {
				p.samples = append(p.samples, s)
			}
		}
	}
	return p, nil
}

// failed counts the measured ops that were not correct.
func (p *phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the durations of the correct ops of one class
// (or of all classes for numClasses) in milliseconds, ascending.
func (p *phase) latencies(class opClass) []float64 {
	var ms []float64
	for _, s := range p.samples {
		if s.ok && (class == numClasses || s.class == class) {
			ms = append(ms, float64(s.dur)/float64(time.Millisecond))
		}
	}
	return sortedCopy(ms)
}

// endToEnd turns a measured phase into the end-to-end metrics. Only
// correct ops count towards throughput and CPU per op: a refused or
// wrong answer is not work done.
func endToEnd(w *workload, p *phase, setupSeconds float64) (*result, error) {
	lat := p.latencies(numClasses)
	if len(lat) == 0 {
		return nil, errors.New("no op completed correctly in the measured stretch")
	}
	correct := float64(len(lat))
	// tail_ms is always the workload's percentile, so that it means the
	// same thing in every run; a run too short to support it says so.
	if supported := tailPercentile(len(lat), w.tail); supported != w.tail {
		fmt.Fprintf(os.Stderr, "bench: %s: %d samples support p%g at most (ten beyond it); tail_ms is p%g all the same\n",
			w.name, len(lat), supported, w.tail)
	}
	res := &result{
		Attempted: len(p.samples),
		Failed:    p.failed(),
		Metrics: map[string]metric{
			"ops_per_s":     {correct / p.wall.Seconds(), "1/s"},
			"p50_ms":        {percentile(lat, 50), "ms"},
			"tail_ms":       {percentile(lat, w.tail), "ms"},
			"setup_s":       {setupSeconds, "s"},
			"cpu_ms_per_op": {float64(p.cpu) / float64(time.Millisecond) / correct, "ms"},
			"peak_rss_mb":   {p.rssMB, "MB"},
		},
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d ops in %.2fs, tail_ms = p%g of %d samples\n",
		w.name, len(p.samples), p.wall.Seconds(), w.tail, len(lat))
	return res, nil
}

// measureServe is one end-to-end run of a serve_* workload.
func (h *harness) measureServe(w *workload, seed int64, seconds float64) (*result, error) {
	sr, err := h.runServe(w, seed, seconds, serveOptions{boots: setupBoots})
	if err != nil {
		return nil, err
	}
	res, err := endToEnd(w, sr.phase, median(sr.setup))
	if err != nil {
		return nil, err
	}
	res.Attempted += sr.durability.attempted
	res.Failed += sr.durability.failed
	res.Correct = res.Failed == 0
	reportFailures(w, sr.failures)
	return res, nil
}

func reportFailures(w *workload, failures []string) {
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", w.name, f)
	}
}
