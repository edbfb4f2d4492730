package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"culinary/internal/experiments"
	"culinary/internal/httpmw"
)

// trafficEnv is a second shared corpus for armored servers: the
// package fixture (testHandler) runs without the traffic stack, and
// these tests need servers with deliberately hostile limits.
var (
	trafficEnvOnce sync.Once
	trafficEnv     *experiments.Env
	trafficEnvErr  error
)

func armoredServer(t *testing.T, tc httpmw.Config, resultCacheBytes int64) *Server {
	t.Helper()
	trafficEnvOnce.Do(func() {
		trafficEnv, trafficEnvErr = experiments.NewEnv(experiments.TestOptions())
	})
	if trafficEnvErr != nil {
		t.Fatalf("building env: %v", trafficEnvErr)
	}
	s, err := New(Config{
		Store:            trafficEnv.Store,
		Analyzer:         trafficEnv.Analyzer,
		NullRecipes:      500,
		Seed:             7,
		ResultCacheBytes: resultCacheBytes,
		Traffic:          &tc,
	})
	if err != nil {
		t.Fatalf("building armored server: %v", err)
	}
	return s
}

// doFrom issues a request with an explicit client address so each
// test draws from its own per-IP rate-limit bucket.
func doFrom(t *testing.T, h http.Handler, ip, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.RemoteAddr = ip + ":55555"
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// envelopeCode decodes the structured error envelope and returns its
// code, failing the test if the body is not envelope-shaped.
func envelopeCode(t *testing.T, body []byte) string {
	t.Helper()
	var env httpmw.Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope %+v missing code or message", env)
	}
	return env.Error.Code
}

// healthTraffic fetches /api/health (exempt from all limits) and
// returns the traffic counters block.
func healthTraffic(t *testing.T, h http.Handler) map[string]interface{} {
	t.Helper()
	rr := doFrom(t, h, "203.0.113.200", "GET", "/api/health", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("health status = %d", rr.Code)
	}
	var body map[string]interface{}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	traffic, ok := body["traffic"].(map[string]interface{})
	if !ok {
		t.Fatalf("health lacks the traffic block: %v", body)
	}
	return traffic
}

// armoredConfig is the shared tight-limits config: read budget of 2
// requests (for the 429 test), roomy mutation budget, 1 KiB body cap
// (for the 413 test). Each test isolates itself via a distinct IP.
func armoredConfig() httpmw.Config {
	return httpmw.Config{
		ReadRPS:       1,
		ReadBurst:     2,
		MutationRPS:   100,
		MutationBurst: 100,
		MaxInFlight:   64,
		RetryAfter:    time.Second,
		MaxBodyBytes:  1 << 10,
	}
}

var (
	armoredOnce sync.Once
	armoredSrv  *Server
)

func armoredHandler(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	armoredOnce.Do(func() {
		armoredSrv = armoredServer(t, armoredConfig(), -1)
	})
	if armoredSrv == nil {
		t.Fatal("armored server failed to build in an earlier test")
	}
	return armoredSrv, armoredSrv.Handler()
}

// TestTraffic413OversizedPost posts a body past the cap at the real
// upsert endpoint and asserts the structured 413 plus its counter.
func TestTraffic413OversizedPost(t *testing.T) {
	srv, h := armoredHandler(t)

	// Build a syntactically valid upsert that exceeds the 1 KiB cap.
	big, err := json.Marshal(upsertRequest{
		Name:        strings.Repeat("pad", 600),
		Region:      "ITA",
		Source:      "Epicurious",
		Ingredients: []string{"tomato", "garlic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rr := doFrom(t, h, "203.0.113.1", "POST", "/api/recipes", big)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (body %s)", rr.Code, rr.Body.String())
	}
	if code := envelopeCode(t, rr.Body.Bytes()); code != httpmw.CodeTooLarge {
		t.Fatalf("envelope code = %q, want %q", code, httpmw.CodeTooLarge)
	}
	if n := srv.Traffic().Stats().Rejected413; n < 1 {
		t.Fatalf("Rejected413 = %d, want >= 1", n)
	}

	// A small body on the same route still works: the cap rejects
	// size, not the endpoint.
	small, _ := json.Marshal(upsertRequest{
		Name:        "traffic test dish",
		Region:      "ITA",
		Source:      "Epicurious",
		Ingredients: []string{"tomato", "garlic"},
	})
	rr = doFrom(t, h, "203.0.113.1", "POST", "/api/recipes", small)
	if rr.Code != http.StatusOK && rr.Code != http.StatusCreated {
		t.Fatalf("small upsert status = %d (%s)", rr.Code, rr.Body.String())
	}
}

// TestTraffic429ThroughHandlers exhausts the read budget through the
// full server chain and asserts the header contract plus counters.
func TestTraffic429ThroughHandlers(t *testing.T) {
	srv, h := armoredHandler(t)
	const ip = "203.0.113.2"

	admitted := 0
	var limited *httptest.ResponseRecorder
	for i := 0; i < 5; i++ {
		rr := doFrom(t, h, ip, "GET", "/api/regions", nil)
		switch rr.Code {
		case http.StatusOK:
			admitted++
			if rr.Header().Get("X-RateLimit-Limit") == "" ||
				rr.Header().Get("X-RateLimit-Remaining") == "" {
				t.Fatalf("admitted response missing X-RateLimit-* headers")
			}
		case http.StatusTooManyRequests:
			if limited == nil {
				limited = rr
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, rr.Code)
		}
	}
	if admitted != 2 {
		t.Fatalf("admitted %d reads, want exactly the burst 2", admitted)
	}
	if limited == nil {
		t.Fatal("budget exhausted but no 429 observed")
	}
	if ra, err := strconv.Atoi(limited.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", limited.Header().Get("Retry-After"))
	}
	if code := envelopeCode(t, limited.Body.Bytes()); code != httpmw.CodeRateLimited {
		t.Fatalf("envelope code = %q, want %q", code, httpmw.CodeRateLimited)
	}
	if n := srv.Traffic().Stats().Rejected429; n < 3 {
		t.Fatalf("Rejected429 = %d, want >= 3", n)
	}

	// Health stays reachable from the throttled IP: probes are exempt.
	if rr := doFrom(t, h, ip, "GET", "/api/health", nil); rr.Code != http.StatusOK {
		t.Fatalf("exempt health probe throttled: %d", rr.Code)
	}
}

// TestTrafficHealthBlock asserts the /api/health traffic block carries
// every advertised counter, including both limiter sub-blocks.
func TestTrafficHealthBlock(t *testing.T) {
	_, h := armoredHandler(t)
	// Generate at least one admitted request so counters are live.
	doFrom(t, h, "203.0.113.3", "GET", "/api/regions", nil)

	traffic := healthTraffic(t, h)
	for _, key := range []string{
		"inFlight", "inFlightLimit", "peakInFlight",
		"admitted", "rejected413", "rejected429", "shed503", "timeouts",
	} {
		if _, ok := traffic[key]; !ok {
			t.Errorf("traffic block missing %q: %v", key, traffic)
		}
	}
	if traffic["admitted"].(float64) < 1 {
		t.Errorf("admitted = %v, want >= 1", traffic["admitted"])
	}
	for _, limiter := range []string{"readLimiter", "mutationLimiter"} {
		sub, ok := traffic[limiter].(map[string]interface{})
		if !ok {
			t.Fatalf("traffic block missing %q: %v", limiter, traffic)
		}
		for _, key := range []string{"rps", "burst", "tokens", "keys", "denied"} {
			if _, ok := sub[key]; !ok {
				t.Errorf("%s missing %q: %v", limiter, key, sub)
			}
		}
	}
}

// TestTrafficDeadline504 arms an expired per-request deadline and
// asserts the query endpoint surfaces the structured timeout instead
// of scanning to completion. Result cache disabled: a cache hit would
// return before the scan's cancellation check could fire.
func TestTrafficDeadline504(t *testing.T) {
	tc := httpmw.Config{
		ReadRPS:        1000,
		MutationRPS:    1000,
		MaxInFlight:    64,
		RetryAfter:     time.Second,
		MaxBodyBytes:   1 << 20,
		RequestTimeout: time.Nanosecond,
	}
	srv := armoredServer(t, tc, 0)
	h := srv.Handler()

	stmt, _ := json.Marshal(map[string]string{"q": "SELECT avg(score) FROM recipes WHERE size > 0"})
	rr := doFrom(t, h, "203.0.113.4", "POST", "/api/query", stmt)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", rr.Code, rr.Body.String())
	}
	if code := envelopeCode(t, rr.Body.Bytes()); code != httpmw.CodeTimeout {
		t.Fatalf("envelope code = %q, want %q", code, httpmw.CodeTimeout)
	}
	if n := srv.Traffic().Stats().Timeouts; n < 1 {
		t.Fatalf("Timeouts = %d, want >= 1", n)
	}
}

// TestTrafficMuxErrorsAreEnveloped asserts that even router-generated
// 404/405 responses conform to the envelope when the stack is armed.
func TestTrafficMuxErrorsAreEnveloped(t *testing.T) {
	_, h := armoredHandler(t)

	rr := doFrom(t, h, "203.0.113.5", "GET", "/api/nope", nil)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rr.Code)
	}
	if code := envelopeCode(t, rr.Body.Bytes()); code != httpmw.CodeNotFound {
		t.Fatalf("404 envelope code = %q", code)
	}

	rr = doFrom(t, h, "203.0.113.5", "DELETE", "/api/regions", nil)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rr.Code)
	}
	if code := envelopeCode(t, rr.Body.Bytes()); code != httpmw.CodeMethod {
		t.Fatalf("405 envelope code = %q", code)
	}
}

// parkedBody holds the handler that decodes it — and that request's
// in-flight slot — inside its first Read until release is closed.
type parkedBody struct {
	entered chan<- struct{}
	release <-chan struct{}
	body    io.Reader
}

func (b *parkedBody) Read(p []byte) (int, error) {
	if b.entered != nil {
		b.entered <- struct{}{}
		b.entered = nil
		<-b.release
	}
	return b.body.Read(p)
}

// TestGateBoundIsTheConfiguredBound: MaxInFlight N admits N, whatever
// the result cache is doing. With N handlers parked, request N+1 is
// shed with the structured 503; once they finish the gate admits again.
func TestGateBoundIsTheConfiguredBound(t *testing.T) {
	const n = 3
	stmt, _ := json.Marshal(map[string]string{"q": "SELECT count(*) FROM recipes WHERE region = 'ITA'"})
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		warm       int // statements run before the gate is filled
	}{
		{"noResultCache", 0, 0},
		{"coldResultCache", -1, 0},
		{"hotResultCache", -1, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := armoredServer(t, httpmw.Config{MaxInFlight: n, RetryAfter: time.Second}, tc.cacheBytes)
			defer srv.Close()
			h := srv.Handler()
			for i := 0; i < tc.warm; i++ {
				if rr := doFrom(t, h, "203.0.113.6", "POST", "/api/query", stmt); rr.Code != http.StatusOK {
					t.Fatalf("warm-up query: status %d (%s)", rr.Code, rr.Body.String())
				}
			}

			entered := make(chan struct{})
			release := make(chan struct{})
			done := make(chan int, n)
			for i := 0; i < n; i++ {
				go func() {
					req := httptest.NewRequest("POST", "/api/query",
						&parkedBody{entered: entered, release: release, body: bytes.NewReader(stmt)})
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, req)
					done <- rr.Code
				}()
			}
			for i := 0; i < n; i++ {
				select {
				case <-entered:
				case <-time.After(10 * time.Second):
					t.Fatalf("only %d of %d requests reached their handler", i, n)
				}
			}

			rr := doFrom(t, h, "203.0.113.6", "POST", "/api/query", stmt)
			if rr.Code != http.StatusServiceUnavailable {
				t.Fatalf("request %d with %d in flight: status %d, want 503", n+1, n, rr.Code)
			}
			if code := envelopeCode(t, rr.Body.Bytes()); code != httpmw.CodeOverloaded {
				t.Fatalf("envelope code = %q, want %q", code, httpmw.CodeOverloaded)
			}
			if st := srv.Traffic().Stats(); st.InFlight != n || st.InFlightLimit != n || st.Shed503 != 1 {
				t.Fatalf("traffic stats %+v, want InFlight=%d InFlightLimit=%d Shed503=1", st, n, n)
			}

			close(release)
			for i := 0; i < n; i++ {
				if code := <-done; code != http.StatusOK {
					t.Errorf("parked request finished with %d", code)
				}
			}
			if rr := doFrom(t, h, "203.0.113.6", "POST", "/api/query", stmt); rr.Code != http.StatusOK {
				t.Fatalf("after the drain: status %d, want 200", rr.Code)
			}
		})
	}
}
