package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The tests drive the real binary, as bench/serve.go and the CI soak
// jobs do: exit codes, stderr and signals are the contract under test.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cmd-server-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "server")
	if out, err := exec.Command("go", "build", "-o", serverBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cmd/server: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// flagLedger is every flag cmd/server declares. Adding, renaming or
// removing one means editing this list — and the ledger in README.md.
var flagLedger = []string{
	"addr", "scale", "seed",
	"db", "db-sync",
	"max-body-bytes", "rate-limit-rps", "rate-limit-mutation-rps",
	"max-inflight", "request-timeout", "shutdown-grace", "trusted-proxies",
	"replication-listen", "replica-of", "primary-url",
}

// removedFlags became constants (see main.go's usage comment).
var removedFlags = []string{
	"null", "db-scrub-interval", "db-write-probe-interval",
	"query-result-cache-bytes", "classifier-rebuild-interval",
	"recommender-rebuild-interval", "max-batch-items", "replica-poll-interval",
	"db-compact-interval", "db-compact-garbage-ratio",
}

// runToExit runs the server with args until it exits by itself and
// returns its exit code and stderr.
func runToExit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, serverBin, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case ctx.Err() != nil:
		t.Fatalf("server %v did not exit:\n%s", args, stderr.String())
	case !errors.As(err, &exit):
		t.Fatalf("server %v: %v", args, err)
	}
	return exit.ExitCode(), stderr.String()
}

func TestFlagSetIsTheLedger(t *testing.T) {
	code, usage := runToExit(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllStringSubmatch(usage, -1) {
		got = append(got, m[1])
	}
	want := slices.Clone(flagLedger)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("declared flags:\n %v\nledger (%d):\n %v", got, len(want), want)
	}
}

func TestRemovedFlagsAreRejected(t *testing.T) {
	for _, name := range removedFlags {
		code, stderr := runToExit(t, "-"+name+"=1")
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -"+name) {
			t.Errorf("-%s: exit %d, want 2 and a flag error; stderr:\n%s", name, code, stderr)
		}
	}
}

// TestBadFlagCombinationsFailBeforeAnyWork: a combination that cannot
// work exits 1 naming the actual conflict, without building the corpus
// first or creating the -db directory.
func TestBadFlagCombinationsFailBeforeAnyWork(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"feedWithoutDB", []string{"-replication-listen", "127.0.0.1:0"}, "-replication-listen requires -db"},
		{"replicaWithoutDB", []string{"-replica-of", "http://127.0.0.1:1"}, "-replica-of requires -db"},
		{"replicaWithFeed", []string{"-replica-of", "http://127.0.0.1:1", "-replication-listen", "127.0.0.1:0", "-db", db},
			"-replica-of and -replication-listen are mutually exclusive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := runToExit(t, tc.args...)
			if code != 1 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit %d, want 1 with %q; stderr:\n%s", code, tc.want, stderr)
			}
			if strings.Contains(stderr, "corpus ready") {
				t.Errorf("the corpus was built before the flags were checked:\n%s", stderr)
			}
			if _, err := os.Stat(db); !os.IsNotExist(err) {
				t.Errorf("-db directory was touched (stat: %v)", err)
			}
		})
	}
}

func TestHeldPortFailsTheBoot(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	code, stderr := runToExit(t, "-addr", ln.Addr().String(), "-scale", "0.01")
	if code == 0 || !strings.Contains(stderr, "listen tcp") {
		t.Errorf("exit %d, want non-zero with a bind error; stderr:\n%s", code, stderr)
	}
}

// serverProc is one running cmd/server.
type serverProc struct {
	addr   string
	cmd    *exec.Cmd
	stderr *bytes.Buffer // read it only once the process has exited
	exited chan error
}

// freeAddr returns a loopback address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startServer runs the binary with -addr on a free port plus args and
// returns once /api/health answers 200. The process is killed when the
// test ends, if drain has not stopped it first.
func startServer(t *testing.T, args ...string) *serverProc {
	t.Helper()
	p := &serverProc{addr: freeAddr(t), stderr: new(bytes.Buffer), exited: make(chan error, 1)}
	p.cmd = exec.Command(serverBin, append([]string{"-addr", p.addr}, args...)...)
	p.cmd.Stderr = p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.exited <- p.cmd.Wait() }()
	t.Cleanup(func() { p.cmd.Process.Kill() }) // no-op once it has exited

	deadline := time.Now().Add(time.Minute)
	for healthy := false; !healthy; {
		select {
		case err := <-p.exited:
			t.Fatalf("server exited during boot (%v):\n%s", err, p.stderr.String())
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no 200 from /api/health within a minute")
		}
		if resp, err := http.Get("http://" + p.addr + "/api/health"); err == nil {
			healthy = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
	}
	return p
}

// drain sends SIGTERM and returns the stderr of a clean (exit 0) exit.
func (p *serverProc) drain(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		if err != nil {
			t.Fatalf("SIGTERM drain: %v\n%s", err, p.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}
	return p.stderr.String()
}

// bootAndDrain starts a primary on dir, waits for /api/health to answer
// 200, sends SIGTERM and returns the stderr of a clean (exit 0) drain.
func bootAndDrain(t *testing.T, dir string) string {
	t.Helper()
	return startServer(t, "-scale", "0.01", "-db", dir, "-shutdown-grace", "10s").drain(t)
}

// checkBootStages: the two boot lines name their stages in whole
// milliseconds, and the stages of each fit inside the total the same
// line reports (which is rounded to the millisecond; each stage is
// truncated to it).
func checkBootStages(t *testing.T, log string) {
	t.Helper()
	for _, line := range []struct{ re, stages string }{
		{`corpus ready: \d+ recipes in (\S+) catalog=(\d+)ms open=(\d+)ms load=(\d+)ms\n`, "catalog+open+load"},
		{`read models ready in (\S+) index=(\d+)ms\n`, "index"},
	} {
		m := regexp.MustCompile(line.re).FindStringSubmatch(log)
		if m == nil {
			t.Errorf("no line matching %q in:\n%s", line.re, log)
			continue
		}
		total, err := time.ParseDuration(m[1])
		if err != nil {
			t.Errorf("%q: total %q: %v", m[0], m[1], err)
			continue
		}
		var sum time.Duration
		for _, ms := range m[2:] {
			n, err := strconv.Atoi(ms)
			if err != nil {
				t.Errorf("%q: stage %q: %v", m[0], ms, err)
			}
			sum += time.Duration(n) * time.Millisecond
		}
		if sum > total+time.Millisecond {
			t.Errorf("%s = %v exceeds the line's total %v: %q", line.stages, sum, total, m[0])
		}
	}
}

func TestPrimaryBootsDrainsAndReloadsItsSnapshot(t *testing.T) {
	dir := t.TempDir()
	first := bootAndDrain(t, dir)
	for _, want := range []string{"saved snapshot to " + dir, "drained cleanly"} {
		if !strings.Contains(first, want) {
			t.Errorf("first boot's log lacks %q:\n%s", want, first)
		}
	}
	checkBootStages(t, first)
	second := bootAndDrain(t, dir)
	if !strings.Contains(second, "loaded snapshot from "+dir) || strings.Contains(second, "generating") {
		t.Errorf("second boot did not load the first boot's snapshot:\n%s", second)
	}
	checkBootStages(t, second)
}

// request sends one request to a server and returns its status,
// X-Corpus-Version and body.
func request(t *testing.T, method, addr, path, body string) (status int, version, respBody string) {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Corpus-Version"), string(raw)
}

// postRecipe upserts one recipe (id < 0 inserts) and returns the
// response status, the slot it landed in and the version the ack
// carries.
func postRecipe(t *testing.T, addr string, id int, name string) (status, slot int, version string) {
	t.Helper()
	idField := ""
	if id >= 0 {
		idField = fmt.Sprintf(`"id": %d, `, id)
	}
	body := fmt.Sprintf(`{%s"name": %q, "region": "ITA", "source": "AllRecipes", "ingredients": ["onion", "garlic", "tomato"]}`, idField, name)
	status, version, raw := request(t, "POST", addr, "/api/recipes", body)
	var created struct{ ID int }
	if status == http.StatusCreated || status == http.StatusOK {
		if err := json.Unmarshal([]byte(raw), &created); err != nil {
			t.Fatalf("POST %q: decoding %q: %v", name, raw, err)
		}
	}
	return status, created.ID, version
}

// TestVersionSurvivesRestart: a primary that acked an insert, a replace
// and a delete of its top slot reboots at the version the last ack
// carried, not below it, and hands out the next slot rather than the
// deleted one — after a SIGTERM drain and after a SIGKILL.
func TestVersionSurvivesRestart(t *testing.T) {
	for _, stop := range []string{"sigterm", "sigkill"} {
		t.Run(stop, func(t *testing.T) {
			dir := t.TempDir()
			p := startServer(t, "-scale", "0.01", "-db", dir, "-db-sync")
			status, top, _ := postRecipe(t, p.addr, -1, "a dish for the top slot")
			if status != http.StatusCreated {
				t.Fatalf("insert: status %d", status)
			}
			if status, _, _ := postRecipe(t, p.addr, 0, "a replaced dish"); status != http.StatusOK {
				t.Fatalf("replace: status %d", status)
			}
			status, acked, _ := request(t, "DELETE", p.addr, fmt.Sprintf("/api/recipes/%d", top), "")
			if status != http.StatusOK || acked == "" {
				t.Fatalf("delete: status %d, version %q", status, acked)
			}
			if stop == "sigterm" {
				p.drain(t)
			} else {
				p.cmd.Process.Kill()
				<-p.exited
			}

			p = startServer(t, "-scale", "0.01", "-db", dir, "-db-sync")
			if _, version, _ := request(t, "GET", p.addr, "/api/regions", ""); version != acked {
				t.Errorf("rebooted at X-Corpus-Version %s; the last ack before the restart carried %s", version, acked)
			}
			if status, slot, _ := postRecipe(t, p.addr, -1, "a dish after the restart"); status != http.StatusCreated || slot != top+1 {
				t.Errorf("insert after the restart: status %d in slot %d; want a new slot %d, not the deleted %d", status, slot, top+1, top)
			}
			p.drain(t)
		})
	}
}

// TestFollowerBootsFromThePrimarysFeed: a second process started with
// -replica-of installs the first one's snapshot from its replication
// listener and then serves the primary's corpus, writes made before it
// booted included, at the primary's version; it refuses writes of its
// own with 403 not_primary and follows the primary's later writes.
// Caught up, with its long-poll waiting on the primary, both processes
// drain cleanly on SIGTERM, the primary first. The primaryRestart
// variant first SIGTERMs the primary alone and boots it again on the
// same store and listener: the follower must converge on the rebooted
// primary's version and follow its writes, never reporting a lower
// version on the way.
func TestFollowerBootsFromThePrimarysFeed(t *testing.T) {
	for _, restart := range []bool{false, true} {
		name := "steady"
		if restart {
			name = "primaryRestart"
		}
		t.Run(name, func(t *testing.T) {
			feedAddr, pdir := freeAddr(t), t.TempDir()
			bootPrimary := func() *serverProc {
				return startServer(t, "-scale", "0.01", "-db", pdir, "-replication-listen", feedAddr, "-shutdown-grace", "10s")
			}
			primary := bootPrimary()
			var paths []string
			for _, name := range []string{"first posted dish", "second posted dish"} {
				status, id, _ := postRecipe(t, primary.addr, -1, name)
				if status != http.StatusCreated {
					t.Fatalf("POST %q to the primary: status %d", name, status)
				}
				paths = append(paths, fmt.Sprintf("/api/recipes/%d", id))
			}

			follower := startServer(t, "-scale", "0.01", "-db", t.TempDir(),
				"-replica-of", "http://"+feedAddr, "-shutdown-grace", "10s")
			for _, path := range paths {
				pStatus, pVersion, pBody := request(t, "GET", primary.addr, path, "")
				fStatus, fVersion, fBody := request(t, "GET", follower.addr, path, "")
				if pStatus != http.StatusOK || fStatus != pStatus || fBody != pBody {
					t.Errorf("GET %s: follower %d %q, primary %d %q", path, fStatus, fBody, pStatus, pBody)
				}
				if fVersion == "" || fVersion != pVersion {
					t.Errorf("GET %s: follower at X-Corpus-Version %q, primary at %q", path, fVersion, pVersion)
				}
			}
			body := `{"name": "a write to the replica", "region": "ITA", "source": "AllRecipes", "ingredients": ["onion", "garlic"]}`
			if status, _, raw := request(t, "POST", follower.addr, "/api/recipes", body); status != http.StatusForbidden || !strings.Contains(raw, `"not_primary"`) {
				t.Errorf("POST to the follower: %d %s, want 403 not_primary", status, raw)
			}

			// follows posts a recipe to the primary and waits until the
			// follower serves it at the ack's version, checking on the way
			// that the follower's version never goes back.
			var seen uint64
			follows := func(name string) {
				t.Helper()
				status, id, acked := postRecipe(t, primary.addr, -1, name)
				if status != http.StatusCreated {
					t.Fatalf("POST %q to the primary: status %d", name, status)
				}
				path := fmt.Sprintf("/api/recipes/%d", id)
				_, _, want := request(t, "GET", primary.addr, path, "")
				for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
					_, stamp, _ := request(t, "GET", follower.addr, "/api/regions", "")
					if v, _ := strconv.ParseUint(stamp, 10, 64); v < seen {
						t.Fatalf("the follower went back from version %d to %d", seen, v)
					} else {
						seen = v
					}
					req, _ := http.NewRequest("GET", "http://"+follower.addr+path, nil)
					req.Header.Set("X-Min-Version", acked)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						if string(body) != want {
							t.Fatalf("follower serves %s as %s, primary as %s", path, body, want)
						}
						return
					}
					if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
						t.Fatalf("GET %s from the follower with X-Min-Version %s: %d %s", path, acked, resp.StatusCode, body)
					}
				}
			}
			follows("a dish posted after the follower booted")

			if restart {
				before := primary.drain(t)
				if !strings.Contains(before, "drained cleanly") {
					t.Errorf("the primary's log lacks a clean drain:\n%s", before)
				}
				primary = bootPrimary()
				follows("a dish posted after the primary's restart")
			}
			if log := primary.drain(t); !strings.Contains(log, "drained cleanly") {
				t.Errorf("the primary's log lacks a clean drain:\n%s", log)
			}
			if log := follower.drain(t); !strings.Contains(log, "drained cleanly") {
				t.Errorf("the follower's log lacks a clean drain:\n%s", log)
			}
		})
	}
}
