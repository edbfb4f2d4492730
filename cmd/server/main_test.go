package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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
	"db", "db-sync", "db-compact-interval", "db-compact-garbage-ratio",
	"max-body-bytes", "rate-limit-rps", "rate-limit-mutation-rps",
	"max-inflight", "request-timeout", "shutdown-grace", "trusted-proxies",
	"replication-listen", "replica-of", "primary-url", "replica-poll-interval",
}

// removedFlags became constants (see main.go's usage comment).
var removedFlags = []string{
	"null", "db-scrub-interval", "db-write-probe-interval",
	"query-result-cache-bytes", "classifier-rebuild-interval",
	"recommender-rebuild-interval", "max-batch-items",
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

// bootAndDrain starts a primary on dir, waits for /api/health to answer
// 200, sends SIGTERM and returns the stderr of a clean (exit 0) drain.
func bootAndDrain(t *testing.T, dir string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var stderr bytes.Buffer
	cmd := exec.Command(serverBin, "-addr", addr, "-scale", "0.01", "-db", dir, "-shutdown-grace", "10s")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer cmd.Process.Kill() // no-op once it has exited

	deadline := time.Now().Add(time.Minute)
	for healthy := false; !healthy; {
		select {
		case err := <-exited:
			t.Fatalf("server exited during boot (%v):\n%s", err, stderr.String())
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no 200 from /api/health within a minute")
		}
		if resp, err := http.Get("http://" + addr + "/api/health"); err == nil {
			healthy = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("SIGTERM drain: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit within 30s of SIGTERM")
	}
	return stderr.String()
}

func TestPrimaryBootsDrainsAndReloadsItsSnapshot(t *testing.T) {
	dir := t.TempDir()
	first := bootAndDrain(t, dir)
	for _, want := range []string{"saved snapshot to " + dir, "drained cleanly"} {
		if !strings.Contains(first, want) {
			t.Errorf("first boot's log lacks %q:\n%s", want, first)
		}
	}
	second := bootAndDrain(t, dir)
	if !strings.Contains(second, "loaded snapshot from "+dir) || strings.Contains(second, "generating") {
		t.Errorf("second boot did not load the first boot's snapshot:\n%s", second)
	}
}
