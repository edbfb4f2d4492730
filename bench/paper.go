//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"culinary/internal/experiments"
	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/stats"
	"culinary/internal/synth"
)

// goldenPath is relative to the repository root.
const goldenPath = "bench/golden/paper_figs.sha256"

// paperRun is the state the loops of one paper_figs run share. A pass
// is the paper's whole evaluation once: 22 region ops (Fig 4 row at
// N = 100 000 plus the Fig 5 contribution table) and one descriptive
// op (Table 1, Fig 2, Fig 3a, Fig 3b). Pass 0 uses the paper's seed and
// its rendered figures are compared with the golden digest; every
// other pass draws its null models from a seed derived from --seed.
type paperRun struct {
	env  *experiments.Env
	seed int64
	rec  *recorder // nil in untraced runs

	mu       sync.Mutex
	rows     map[[2]int]experiments.Fig4Row // (pass, region) -> row, untraced results
	pass0Top map[recipedb.Region][]pairing.Contribution
	failures []string
	budgets  []opBudget
}

func (p *paperRun) fail(format string, args ...interface{}) {
	p.mu.Lock()
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

func (p *paperRun) passSeed(pass int) uint64 {
	if pass == 0 {
		return corpusSeed
	}
	return uint64(p.seed)*1000003 + uint64(pass)
}

// paperLoop is one client: it works through passes client, client+n,
// client+2n, ... one op at a time.
type paperLoop struct {
	run             *paperRun
	client, clients int
	pass, idx       int
	env             experiments.Env
}

func newPaperLoop(run *paperRun, client, clients int) *paperLoop {
	l := &paperLoop{run: run, client: client, clients: clients, pass: client}
	l.env = *run.env
	l.env.Seed = run.passSeed(l.pass)
	return l
}

func (l *paperLoop) step(epoch time.Time) sample {
	regions := recipedb.MajorRegions()
	t0 := time.Now()
	var s sample
	if l.idx < len(regions) {
		s.class = classPaperRegion
		s.ok = l.region(regions[l.idx])
	} else {
		s.class = classPaperDescriptive
		s.ok = l.descriptive()
	}
	s.start, s.dur = t0.Sub(epoch), time.Since(t0)
	if l.idx++; l.idx > len(regions) {
		l.idx = 0
		l.pass += l.clients
		l.env.Seed = l.run.passSeed(l.pass)
	}
	return s
}

// region is one op: everything cmd/pairing and cmd/experiments compute
// for one cuisine.
func (l *paperLoop) region(r recipedb.Region) bool {
	var row experiments.Fig4Row
	var contribs []pairing.Contribution
	var err error
	if l.run.rec == nil {
		row, err = l.env.Fig4Region(r)
		c := l.env.Store.BuildCuisine(r)
		contribs = l.env.Analyzer.ContributionsParallel(l.env.Store, c, 0)
	} else {
		row, contribs, err = l.tracedRegion(r)
	}
	if err != nil {
		l.run.fail("pass %d region %s: %v", l.pass, r.Code(), err)
		return false
	}
	for _, z := range append(row.ZModel[:], row.ZCuisine) {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			l.run.fail("pass %d region %s: Z is not finite", l.pass, r.Code())
			return false
		}
	}
	p := l.run
	p.mu.Lock()
	defer p.mu.Unlock()
	key := [2]int{l.pass, int(r)}
	if p.rec == nil {
		p.rows[key] = row
	} else if want, ok := p.rows[key]; ok && want != row {
		// The traced op is rebuilt from public calls; it must compute
		// what Fig4Region computed in the untraced phase of this run.
		if len(p.failures) < 10 {
			p.failures = append(p.failures, fmt.Sprintf("pass %d region %s: traced row differs from Fig4Region's", l.pass, r.Code()))
		}
		return false
	}
	if l.pass == 0 {
		sign := zSign(row.ZCuisine)
		if sign == 0 {
			sign = r.PairingSign()
		}
		p.pass0Top[r] = pairing.TopContributors(contribs, 3, sign)
	}
	return true
}

func zSign(z float64) int {
	switch {
	case z > 0:
		return 1
	case z < 0:
		return -1
	}
	return 0
}

func (l *paperLoop) descriptive() bool {
	var t0 time.Duration
	if l.run.rec != nil {
		t0 = l.run.rec.now()
	}
	ok := len(l.env.Table1()) == recipedb.NumMajorRegions+1 &&
		len(l.env.Fig2().Values) == recipedb.NumMajorRegions+1 &&
		len(l.env.Fig3a()) == recipedb.NumMajorRegions+1 &&
		len(l.env.Fig3b()) == recipedb.NumMajorRegions+1
	if rec := l.run.rec; rec != nil {
		s := span{id: rec.newID(), kind: spanDescriptive, class: classPaperDescriptive, start: t0, end: rec.now()}
		s.op = s.id
		rec.add(s)
		var b opBudget
		b.class = classPaperDescriptive
		b.self[layerExperiments] = s.dur()
		l.run.mu.Lock()
		l.run.budgets = append(l.run.budgets, b)
		l.run.mu.Unlock()
	}
	if !ok {
		l.run.fail("pass %d: a descriptive table is short", l.pass)
	}
	return ok
}

// tracedRegion is Env.Fig4Region plus the contribution table, rebuilt
// from the public functions it is made of so each can be timed from
// outside. The random streams are derived exactly as Fig4Region
// derives them, so the row is bit-identical.
func (l *paperLoop) tracedRegion(r recipedb.Region) (experiments.Fig4Row, []pairing.Contribution, error) {
	rec, e := l.run.rec, &l.env
	op := rec.newID()
	var b opBudget
	b.class = classPaperRegion
	timed := func(kind spanKind, n int, fn func()) {
		s := span{parent: op, op: op, kind: kind, class: classPaperRegion, n: n, start: rec.now()}
		fn()
		s.end = rec.now()
		rec.add(s)
		b.self[spanInfo[kind].layer] += s.dur()
	}
	start := rec.now()

	var c *recipedb.Cuisine
	timed(spanBuildCuisine, 0, func() { c = e.Store.BuildCuisine(r) })
	src := rng.New(e.Seed).Split(0x40 + uint64(r))
	var observed float64
	var scored int
	timed(spanObservedScore, c.NumRecipes(), func() { observed, scored = e.Analyzer.ScoreCuisineParallel(e.Store, c, 0) })
	if scored == 0 {
		return experiments.Fig4Row{}, nil, fmt.Errorf("region %s has no scorable recipes", r.Code())
	}
	var rMean, rStd float64
	var rN int
	var err error
	timed(spanNullMoments, e.NullRecipes, func() {
		var rs *pairing.NullSampler
		if rs, err = pairing.NewNullSampler(e.Analyzer, e.Store, c, pairing.RandomModel, src.Split(0)); err == nil {
			rMean, rStd, rN = rs.NullMoments(e.NullRecipes)
		}
	})
	if err != nil {
		return experiments.Fig4Row{}, nil, err
	}
	row := experiments.Fig4Row{
		Region: r, Observed: observed, RandomMean: rMean, RandomStd: rStd,
		ZCuisine: stats.ZScore(observed, rMean, rStd, rN), PaperSign: r.PairingSign(),
	}
	row.ModelMean[pairing.RandomModel] = rMean
	for _, m := range []pairing.Model{pairing.FrequencyModel, pairing.CategoryModel, pairing.FrequencyCategoryModel} {
		var mMean float64
		timed(spanModelScore, e.NullRecipes, func() {
			mMean, err = pairing.ModelScore(e.Analyzer, e.Store, c, m, e.NullRecipes, src.Split(uint64(m)+1))
		})
		if err != nil {
			return experiments.Fig4Row{}, nil, err
		}
		row.ModelMean[m] = mMean
		row.ZModel[m] = stats.ZScore(mMean, rMean, rStd, rN)
	}
	timed(spanBuildCuisine, 0, func() { c = e.Store.BuildCuisine(r) })
	var contribs []pairing.Contribution
	timed(spanContributions, c.NumRecipes(), func() { contribs = e.Analyzer.ContributionsParallel(e.Store, c, 0) })

	root := span{id: op, op: op, kind: spanPaperRegion, class: classPaperRegion, start: start, end: rec.now()}
	var children time.Duration
	for _, d := range b.self {
		children += d
	}
	b.self[layerExperiments] += root.dur() - children
	rec.add(root)
	l.run.mu.Lock()
	l.run.budgets = append(l.run.budgets, b)
	l.run.mu.Unlock()
	return row, contribs, nil
}

// digest renders pass 0 the way cmd/experiments prints Fig 4 and Fig 5
// and hashes the text.
func (p *paperRun) digest() (string, error) {
	regions := recipedb.MajorRegions()
	rows := make([]experiments.Fig4Row, len(regions))
	fig5 := make([]experiments.Fig5Row, len(regions))
	for i, r := range regions {
		row, ok := p.rows[[2]int{0, int(r)}]
		if !ok {
			return "", fmt.Errorf("pass 0 has no row for %s", r.Code())
		}
		rows[i] = row
		sign := zSign(row.ZCuisine)
		if sign == 0 {
			sign = r.PairingSign()
		}
		fig5[i] = experiments.Fig5Row{Region: r, Sign: sign, Top: p.pass0Top[r]}
	}
	var buf bytes.Buffer
	if err := p.env.Fig4Report(rows).Render(&buf); err != nil {
		return "", err
	}
	pos, neg := p.env.Fig5Report(fig5)
	if err := pos.Render(&buf); err != nil {
		return "", err
	}
	if err := neg.Render(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// checkDigest compares pass 0 with the committed golden digest; it
// counts as one more attempted op.
func (p *paperRun) checkDigest(root string, res *result, write bool) error {
	got, err := p.digest()
	if err != nil {
		return err
	}
	path := filepath.Join(root, goldenPath)
	if write {
		line := fmt.Sprintf("%s  paper_figs pass 0: Fig4Report + Fig5Report(top 3), scale 1.0, seed %d, N = %d; generated on %s/%s\n",
			got, corpusSeed, p.env.NullRecipes, runtime.GOOS, runtime.GOARCH)
		return os.WriteFile(path, []byte(line), 0o644)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want := strings.Fields(string(data))
	res.Attempted++
	if len(want) == 0 || want[0] != got {
		res.Failed++
		p.fail("pass 0 renders to digest %s, golden is %s", got, strings.Join(want[:min(1, len(want))], ""))
	}
	return nil
}

// selfCPU is the CPU time this process has used.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// drivePaper runs the loops of one phase and reads this process's own
// CPU and memory around the measured stretch: paper_figs runs in
// process, so the program under test is the benchmark itself.
func drivePaper(w *workload, run *paperRun, seconds float64) (*phase, error) {
	n := w.clientCount()
	loops := make([]*paperLoop, n)
	steps := make([]func(time.Time) sample, n)
	for i := range loops {
		loops[i] = newPaperLoop(run, i, n)
		steps[i] = loops[i].step
	}
	var cpu0, cpu1 time.Duration
	var rss float64
	ph, err := drive(steps, seconds, func(start bool) error {
		cpu, err := selfCPU()
		if start {
			cpu0 = cpu
			return err
		}
		cpu1 = cpu
		if err != nil {
			return err
		}
		rss, err = procPeakRSS(os.Getpid())
		return err
	}, func(i int) bool {
		// Pass 0 belongs to loop 0 and must be complete for the digest.
		return i == 0 && loops[0].pass == 0
	})
	if err != nil {
		return nil, err
	}
	ph.cpu, ph.rssMB = cpu1-cpu0, rss
	return ph, nil
}

func newPaperRun(env *experiments.Env, seed int64) *paperRun {
	return &paperRun{env: env, seed: seed,
		rows: map[[2]int]experiments.Fig4Row{}, pass0Top: map[recipedb.Region][]pairing.Contribution{}}
}

// runPaper is one end-to-end run of paper_figs. Set-up is
// experiments.NewEnv at the paper's configuration.
func (h *harness) runPaper(w *workload, seed int64, seconds float64) (*result, error) {
	var setup []float64
	var env *experiments.Env
	for i := 0; i < setupBoots; i++ {
		env = nil
		runtime.GC() // one environment at a time, or peak memory triples
		t0 := time.Now()
		var err error
		if env, err = experiments.NewEnv(experiments.DefaultOptions()); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	run := newPaperRun(env, seed)
	ph, err := drivePaper(w, run, seconds)
	if err != nil {
		return nil, err
	}
	res, err := endToEnd(w, ph, median(setup))
	if err != nil {
		return nil, err
	}
	if err := run.checkDigest(h.root, res, h.writeGolden); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	reportFailures(w, run.failures)
	return res, nil
}

// paperSetupSpans times the three constructors NewEnv is made of.
func paperSetupSpans() (flavorMs, analyzerMs, synthMs float64, env *experiments.Env, err error) {
	opts := experiments.DefaultOptions()
	t0 := time.Now()
	fcfg := flavor.DefaultConfig()
	fcfg.Seed = opts.Seed
	catalog, err := flavor.Build(fcfg)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	flavorMs = msSince(t0)
	t0 = time.Now()
	analyzer := pairing.NewAnalyzer(catalog)
	analyzerMs = msSince(t0)
	t0 = time.Now()
	scfg := synth.DefaultConfig()
	scfg.Seed, scfg.Scale = opts.Seed, opts.Scale
	store, err := synth.Generate(analyzer, scfg)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	synthMs = msSince(t0)
	env = &experiments.Env{Catalog: catalog, Analyzer: analyzer, Store: store, NullRecipes: opts.NullRecipes, Seed: opts.Seed}
	return flavorMs, analyzerMs, synthMs, env, nil
}

// tracePaper is the traced run of paper_figs: an untraced reference
// phase for the end-to-end latency of an op, then the same passes with
// every op rebuilt from timed public calls.
func (h *harness) tracePaper(w *workload, seed int64, seconds float64) (*result, error) {
	flavorMs, analyzerMs, synthMs, env, err := paperSetupSpans()
	if err != nil {
		return nil, err
	}
	run := newPaperRun(env, seed)
	ref, err := drivePaper(w, run, seconds*referenceShare)
	if err != nil {
		return nil, err
	}
	run.rec = newRecorder()
	traced, err := drivePaper(w, run, seconds*(1-referenceShare))
	if err != nil {
		return nil, err
	}
	if len(run.budgets) == 0 {
		return nil, errors.New("no traced op completed")
	}

	spans := run.rec.spans
	rows := budgetRows(run.budgets, func(c opClass) float64 { return 1000 * percentile(ref.latencies(c), 50) })
	if err := h.writeTrace(w, spans, rows); err != nil {
		return nil, err
	}

	m := newLayerMetrics()
	m.set("flavor.build_ms", flavorMs)
	m.set("pairing.analyzer_build_ms", analyzerMs)
	m.set("synth.generate_ms", synthMs)
	m.set("recipedb.build_cuisine_ms", median(spanDurations(spans, spanBuildCuisine, time.Millisecond)))
	m.set("pairing.observed_score_ms", median(spanDurations(spans, spanObservedScore, time.Millisecond)))
	m.set("pairing.contributions_ms", median(spanDurations(spans, spanContributions, time.Millisecond)))
	m.set("experiments.descriptive_ms", median(spanDurations(spans, spanDescriptive, time.Millisecond)))
	// One region draws four null models; their time is reported per op.
	var perOp []float64
	var nullRecipes, nullSeconds float64
	sums := map[uint32]time.Duration{}
	for i := range spans {
		if k := spans[i].kind; k == spanNullMoments || k == spanModelScore {
			sums[spans[i].op] += spans[i].dur()
			nullRecipes += float64(spans[i].n)
			nullSeconds += spans[i].dur().Seconds()
		}
	}
	for _, d := range sums {
		perOp = append(perOp, float64(d)/float64(time.Millisecond))
	}
	m.set("pairing.null_moments_ms", median(perOp))
	if nullSeconds > 0 {
		m.set("pairing.null_recipes_per_s", nullRecipes/nullSeconds)
	}
	for _, row := range rows {
		m.set("trace.coverage."+row.class.String(), row.coverage)
	}
	// Tracing here is a handful of clock reads per 250 ms op; what the
	// traced ops cost more than the untraced ones is the overhead.
	if refP50, trP50 := percentile(ref.latencies(classPaperRegion), 50), percentile(traced.latencies(classPaperRegion), 50); refP50 > 0 {
		m.set("trace.overhead_share", trP50/refP50-1)
	}

	res := &result{Attempted: len(ref.samples) + len(traced.samples), Failed: ref.failed() + traced.failed(), Metrics: m.values}
	res.Correct = res.Failed == 0
	reportFailures(w, run.failures)
	return res, nil
}
