package httpmw

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Gate is the concurrency-limit/load-shed valve: it admits at most
// limit requests in flight and rejects the excess with 503 +
// Retry-After instead of queueing them. Shedding keeps the server's
// latency bounded under overload — queued work would all time out
// together; shed work retries against a server that is still making
// progress.
type Gate struct {
	limit      int64
	retryAfter time.Duration

	inFlight atomic.Int64
	peak     atomic.Int64
	shed     atomic.Int64
	admitted atomic.Int64
}

// NewGate builds a gate admitting limit concurrent requests.
// retryAfter <= 0 defaults to 1s.
func NewGate(limit int, retryAfter time.Duration) *Gate {
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	return &Gate{limit: int64(limit), retryAfter: retryAfter}
}

// Enter tries to claim an in-flight slot; callers must Exit() iff it
// returns true. The count is incremented before the bound check so two
// racing requests cannot both squeeze through the last slot.
func (g *Gate) Enter() bool {
	n := g.inFlight.Add(1)
	if n > g.limit {
		g.inFlight.Add(-1)
		g.shed.Add(1)
		return false
	}
	g.admitted.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return true
		}
	}
}

// Exit releases a slot claimed by Enter.
func (g *Gate) Exit() { g.inFlight.Add(-1) }

// GateStats is a point-in-time gate snapshot for /api/health.
type GateStats struct {
	InFlight int64 `json:"inFlight"`
	Limit    int64 `json:"limit"`
	Peak     int64 `json:"peak"`
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
}

// Stats snapshots the gate's counters.
func (g *Gate) Stats() GateStats {
	return GateStats{
		InFlight: g.inFlight.Load(),
		Limit:    g.limit,
		Peak:     g.peak.Load(),
		Admitted: g.admitted.Load(),
		Shed:     g.shed.Load(),
	}
}

// LoadShed gates next behind g. Exempt requests (nil = none) bypass
// the gate entirely — health probes must answer precisely when the
// server is saturated.
func LoadShed(next http.Handler, g *Gate, exempt func(*http.Request) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt != nil && exempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		if !g.Enter() {
			w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(g.retryAfter)))
			WriteError(w, http.StatusServiceUnavailable, CodeOverloaded,
				"server is at its concurrency limit; retry after the Retry-After interval")
			return
		}
		defer g.Exit()
		next.ServeHTTP(w, r)
	})
}
