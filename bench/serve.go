//go:build linux

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"culinary/internal/flavor"
)

// harness owns everything a run leaves on disk or in the process
// table: the build directory, this run's scratch directory and the
// server children. close undoes all of it and is safe to call twice.
type harness struct {
	root     string // repository root (holds go.mod of module culinary)
	buildDir string // root/.bench_build: binaries and the prepared snapshot
	runDir   string // buildDir/run-<pid>: removed on close

	// writeGolden makes paper_figs write its golden digest instead of
	// comparing with it.
	writeGolden bool

	mu       sync.Mutex
	children []*child
	closed   bool
}

// findRoot walks up from the working directory to the repository
// root. `go run -C bench .` starts the benchmark inside bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module culinary\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod of module culinary above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

func newHarness() (*harness, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, buildDir: filepath.Join(root, ".bench_build")}
	h.runDir = filepath.Join(h.buildDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(h.runDir, 0o755); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, c := range h.children {
		c.kill()
	}
	os.RemoveAll(h.runDir)
}

// buildServer compiles cmd/server from the checkout's source. go build
// is incremental, so every run after the first pays a fraction of a
// second and never measures a stale binary.
func (h *harness) buildServer() (string, error) {
	bin := filepath.Join(h.buildDir, "server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/server")
	cmd.Dir = h.root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/server: %w", err)
	}
	return bin, nil
}

// child is one process the benchmark started: cmd/server, or the
// benchmark itself as the traced run's echo server.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	started time.Time
	logPath string
	exited  chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the server binds it, which is the usual small race.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the server on dbDir with the shipped defaults.
// Only the rate limits are raised, far above what two closed-loop
// clients can offer: the limiter's bookkeeping stays on the request
// path, but it never refuses.
func (h *harness) startServer(bin, dbDir string) (*child, error) {
	return h.spawn(bin, func(addr string) []string {
		return []string{
			"-addr", addr,
			"-scale", strconv.FormatFloat(corpusScale, 'f', -1, 64),
			"-seed", strconv.Itoa(corpusSeed),
			"-db", dbDir,
			"-db-sync",
			"-rate-limit-rps", "1000000",
			"-rate-limit-mutation-rps", "1000000"}
	})
}

// spawn starts bin as a child listening on a free loopback port, with
// two processors and its output in a file of the run directory.
func (h *harness) spawn(bin string, args func(addr string) []string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logPath := filepath.Join(h.runDir, fmt.Sprintf("child-%d.log", port))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args(addr)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the benchmark dies without running close, the kernel takes the
	// child down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	h.mu.Lock()
	h.children = append(h.children, c)
	h.mu.Unlock()
	return c, nil
}

var healthClient = &http.Client{Timeout: 5 * time.Second}

// waitHealthy polls /api/health until it answers 200 and returns how
// long that took since the process was started.
func (c *child) waitHealthy(timeout time.Duration) (time.Duration, error) {
	for {
		resp, err := healthClient.Get(c.base + "/api/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.started), nil
			}
		}
		select {
		case <-c.exited:
			return 0, fmt.Errorf("server exited before becoming healthy: %s", c.logTail())
		default:
		}
		if time.Since(c.started) > timeout {
			return 0, fmt.Errorf("server not healthy after %v: %s", timeout, c.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *child) logTail() string {
	data, _ := os.ReadFile(c.logPath)
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

// stop asks for a graceful drain and falls back to SIGKILL.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(20 * time.Second):
		c.kill()
	}
}

// kill ends the process without any chance to clean up and waits for
// it to be gone.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// procCPU is the user+system CPU time the process has consumed.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const clockTick = 10 * time.Millisecond // USER_HZ is 100 on every Linux ABI
	return time.Duration(utime+stime) * clockTick, nil
}

// procPeakRSS is the process's resident-set high-water mark in MB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// health is the part of /api/health the per-layer counts come from.
type health struct {
	Recipes    int `json:"recipes"`
	QueryCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"queryCache"`
	ResultCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"resultCache"`
	Derived struct {
		Classifier  derivedHealth `json:"classifier"`
		Recommender derivedHealth `json:"recommender"`
	} `json:"derived"`
	Traffic struct {
		Rejected429     int64 `json:"rejected429"`
		Shed503         int64 `json:"shed503"`
		MutationBatches struct {
			Batches int64 `json:"batches"`
			Ops     int64 `json:"ops"`
		} `json:"mutationBatches"`
	} `json:"traffic"`
	Storage struct {
		LiveBytes int64 `json:"liveBytes"`
		DeadBytes int64 `json:"deadBytes"`
	} `json:"storage"`
}

type derivedHealth struct {
	Rebuilds     int64 `json:"rebuilds"`
	TotalBuildNs int64 `json:"totalBuildNs"`
}

func getHealth(d doer) (health, error) {
	var h health
	resp, err := d.do("GET", "/api/health", "")
	if err != nil {
		return h, err
	}
	if resp.status != http.StatusOK {
		return h, fmt.Errorf("/api/health answered %d", resp.status)
	}
	return h, json.Unmarshal(resp.body, &h)
}

// snapshot returns a data directory holding the saved corpus, building
// it on first use: the server boots on an empty directory, generates
// the 45 772 recipes and saves them. The server must be healthy before
// it is stopped; interrupting the first boot mid-save leaves a short
// corpus that later boots load without complaint (README, known
// issues). The directory name carries the binary's hash so a rebuilt
// server never reads another build's files.
func (h *harness) snapshot(bin string) (string, error) {
	data, err := os.ReadFile(bin)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(h.buildDir, "snapshot-"+hex.EncodeToString(sum[:6]))
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := filepath.Join(h.runDir, "snapshot")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	c, err := h.startServer(bin, tmp)
	if err != nil {
		return "", err
	}
	if _, err := c.waitHealthy(5 * time.Minute); err != nil {
		c.kill()
		return "", err
	}
	hl, err := getHealth(&httpDoer{base: c.base, hc: healthClient})
	c.stop()
	if err != nil {
		return "", err
	}
	if hl.Recipes != corpusRecipes {
		return "", fmt.Errorf("prepared corpus holds %d recipes, want %d", hl.Recipes, corpusRecipes)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// clientCount is the closed loop's width for a workload: its nominal
// client count, each client with its own keep-alive connection, and
// never more than the machine has CPUs.
func (w *workload) clientCount() int {
	return min(w.clients, runtime.NumCPU())
}

// serveOptions selects what a serve_* run does besides driving traffic.
type serveOptions struct {
	boots      int  // how many times set-up is measured
	parseQuery bool // decode query answers for scan counts
}

// serveResult is one end-to-end run against the real server binary.
type serveResult struct {
	*phase
	setup      []float64 // seconds per boot
	durability checkResult
	failures   []string
	clients    []*client
	snapshot   string // the prepared data directory the run booted from
	// bootLogBytes is the storage log's size before any traffic.
	bootLogBytes int64
}

type checkResult struct {
	attempted, failed int
}

func newHTTPClients(w *workload, v *vocab, seed int64, base string) []*client {
	n := w.clientCount()
	tr := &http.Transport{MaxIdleConnsPerHost: n, DisableCompression: true}
	clients := make([]*client, n)
	for i := range clients {
		d := &httpDoer{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
		clients[i] = newClient(w, newGenerator(w, v, seed, i, n), d)
	}
	return clients
}

func benchCatalog() (*flavor.Catalog, error) {
	cfg := flavor.DefaultConfig()
	cfg.Seed = corpusSeed
	return flavor.Build(cfg)
}

// runServe boots the real server from the prepared snapshot, drives
// the workload over loopback HTTP and, for workloads that write, ends
// with the durability check.
func (h *harness) runServe(w *workload, seed int64, seconds float64, opt serveOptions) (*serveResult, error) {
	bin, err := h.buildServer()
	if err != nil {
		return nil, err
	}
	snap, err := h.snapshot(bin)
	if err != nil {
		return nil, err
	}
	catalog, err := benchCatalog()
	if err != nil {
		return nil, err
	}
	v := newVocab(catalog)

	// Set-up is restart cost: process start to first healthy answer,
	// booting from the saved corpus. Every boot gets a fresh copy; all
	// but the last are thrown away.
	res := &serveResult{snapshot: snap}
	var srv *child
	var dbDir string
	for i := 0; i < opt.boots; i++ {
		dbDir = filepath.Join(h.runDir, "db-"+strconv.Itoa(i))
		if err := copyDir(snap, dbDir); err != nil {
			return nil, err
		}
		if srv, err = h.startServer(bin, dbDir); err != nil {
			return nil, err
		}
		took, err := srv.waitHealthy(2 * time.Minute)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, took.Seconds())
		if i < opt.boots-1 {
			srv.kill()
		}
	}

	clients := newHTTPClients(w, v, seed, srv.base)
	for _, c := range clients {
		c.parseQuery = opt.parseQuery
	}
	probe := &httpDoer{base: srv.base, hc: healthClient}
	pid := srv.cmd.Process.Pid
	booted, err := getHealth(probe)
	if err != nil {
		return nil, err
	}
	res.bootLogBytes = booted.Storage.LiveBytes + booted.Storage.DeadBytes
	var cpu0, cpu1 time.Duration
	var before, after health
	var rssMB float64
	steps := make([]func(time.Time) sample, len(clients))
	for i, c := range clients {
		steps[i] = func(epoch time.Time) sample {
			_, _, s := c.step(epoch)
			return s
		}
	}
	res.phase, err = drive(steps, seconds, func(start bool) error {
		hl, err := getHealth(probe)
		if err != nil {
			return err
		}
		cpu, err := procCPU(pid)
		if err != nil {
			return err
		}
		if start {
			cpu0, before = cpu, hl
			return nil
		}
		cpu1, after = cpu, hl
		rssMB, err = procPeakRSS(pid)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	res.cpu, res.rssMB, res.before, res.after = cpu1-cpu0, rssMB, before, after
	res.clients = clients
	for _, c := range clients {
		res.failures = append(res.failures, c.failures...)
	}

	if w.readOnly {
		srv.stop()
		return res, nil
	}
	// Durability: the server gets no chance to close anything. What it
	// acknowledged must be there when it comes back on the same files.
	srv.kill()
	srv, err = h.startServer(bin, dbDir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if _, err := srv.waitHealthy(2 * time.Minute); err != nil {
		return nil, err
	}
	res.durability, err = checkDurability(&httpDoer{base: srv.base, hc: healthClient}, clients, booted.Recipes, &res.failures)
	return res, err
}

// checkDurability reads every recipe beyond the base corpus back from
// a rebooted server and compares it with what the clients were told:
// every acknowledged upsert is served with the acknowledged content,
// every acknowledged delete is gone. The listing is ordered by id and
// the base corpus is never deleted from, so offset = base size skips
// exactly the recipes no client wrote.
func checkDurability(d doer, clients []*client, base int, failures *[]string) (checkResult, error) {
	final := map[int]*recipeSpec{}
	for _, c := range clients {
		for id, spec := range c.final {
			if !c.unknown[id] {
				final[id] = spec
			}
		}
	}
	var res checkResult
	fail := func(format string, args ...interface{}) {
		res.failed++
		if len(*failures) < 10 {
			*failures = append(*failures, "durability: "+fmt.Sprintf(format, args...))
		}
	}
	served := map[int]bool{}
	const page = 500
	for offset := base; ; offset += page {
		resp, err := d.do("GET", fmt.Sprintf("/api/recipes?limit=%d&offset=%d", page, offset), "")
		if err != nil {
			return res, err
		}
		var got struct {
			Recipes []struct {
				ID int `json:"id"`
				recipeSpec
			} `json:"recipes"`
		}
		if resp.status != http.StatusOK {
			return res, fmt.Errorf("listing after reboot answered %d", resp.status)
		}
		if err := json.Unmarshal(resp.body, &got); err != nil {
			return res, fmt.Errorf("listing after reboot: %w", err)
		}
		for _, r := range got.Recipes {
			want, tracked := final[r.ID]
			if !tracked {
				continue
			}
			served[r.ID] = true
			switch {
			case want == nil:
				fail("recipe %d was deleted and is served again", r.ID)
			case !sameRecipe(want, &r.recipeSpec):
				fail("recipe %d is served as %+v, acknowledged as %+v", r.ID, r.recipeSpec, *want)
			}
		}
		if len(got.Recipes) < page {
			break
		}
	}
	for id, want := range final {
		res.attempted++
		if want != nil && !served[id] {
			fail("acknowledged recipe %d is gone", id)
		}
	}
	return res, nil
}

func sameRecipe(a, b *recipeSpec) bool {
	if a.Name != b.Name || a.Region != b.Region || a.Source != b.Source || len(a.Ingredients) != len(b.Ingredients) {
		return false
	}
	x := append([]string(nil), a.Ingredients...)
	y := append([]string(nil), b.Ingredients...)
	sort.Strings(x)
	sort.Strings(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
