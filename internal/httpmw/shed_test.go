package httpmw

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateShedsAndRecovers fills the gate, asserts the 503 contract
// (Retry-After + envelope code overloaded), then drains and asserts
// full recovery — shedding is stateless, not a breaker that latches.
func TestGateShedsAndRecovers(t *testing.T) {
	g := NewGate(2, 3*time.Second)
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	h := LoadShed(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}), g, nil)

	type result struct{ rr *httptest.ResponseRecorder }
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("GET", "/slow", nil))
			results <- result{rr}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight requests never started")
		}
	}

	// Gate is full: the next request is shed, not queued.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/slow", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rr.Code)
	}
	if ra, err := strconv.Atoi(rr.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", rr.Header().Get("Retry-After"))
	}
	if code := decodeEnvelope(t, rr.Body.Bytes()); code != CodeOverloaded {
		t.Fatalf("envelope code = %q, want %q", code, CodeOverloaded)
	}
	if st := g.Stats(); st.Shed != 1 || st.InFlight != 2 {
		t.Fatalf("stats = %+v, want Shed=1 InFlight=2", st)
	}

	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.rr.Code != http.StatusOK {
			t.Fatalf("admitted request finished with %d", r.rr.Code)
		}
	}

	// Recovery: slots freed (and release closed), the next request
	// sails through.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/slow", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d, want 200", rr.Code)
	}
	if st := g.Stats(); st.InFlight != 0 {
		t.Fatalf("InFlight = %d after drain, want 0", st.InFlight)
	}
}

// TestGateNeverOverAdmits races many requests through a small gate
// and asserts the observed concurrency inside the handler never
// exceeds the bound — the shed check must be atomic with the
// in-flight increment.
func TestGateNeverOverAdmits(t *testing.T) {
	const limit = 4
	g := NewGate(limit, time.Second)
	var inHandler, maxSeen atomic.Int64
	h := LoadShed(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inHandler.Add(1)
		for {
			m := maxSeen.Load()
			if n <= m || maxSeen.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		inHandler.Add(-1)
		w.WriteHeader(http.StatusOK)
	}), g, nil)

	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest("GET", "/x", nil))
				switch rr.Code {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
				default:
					t.Errorf("unexpected status %d", rr.Code)
				}
			}
		}()
	}
	wg.Wait()
	if maxSeen.Load() > limit {
		t.Fatalf("observed %d concurrent handlers, bound is %d", maxSeen.Load(), limit)
	}
	if ok.Load()+shed.Load() != 32*50 {
		t.Fatalf("ok %d + shed %d != issued %d", ok.Load(), shed.Load(), 32*50)
	}
	st := g.Stats()
	if st.Admitted != ok.Load() || st.Shed != shed.Load() {
		t.Fatalf("gate stats %+v disagree with observed ok=%d shed=%d", st, ok.Load(), shed.Load())
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after the storm, want 0", st.InFlight)
	}
}

// TestGateExemptBypass asserts exempt requests (health probes) pass a
// saturated gate.
func TestGateExemptBypass(t *testing.T) {
	g := NewGate(1, time.Second)
	if !g.Enter() { // saturate
		t.Fatal("could not claim the only slot")
	}
	h := LoadShed(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), g, func(r *http.Request) bool { return r.URL.Path == "/api/health" })

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/query", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("non-exempt request: status %d, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/health", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("health probe blocked by a saturated gate: status %d", rr.Code)
	}
	g.Exit()
}
