package httpmw

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"
)

// MaxBytes caps request body size with http.MaxBytesReader. The cap
// surfaces when a handler reads the body: the read fails with
// *http.MaxBytesError (detect with IsMaxBytesError) and the handler
// answers with a structured 413. n <= 0 disables the cap.
func MaxBytes(next http.Handler, n int64) http.Handler {
	if n <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, n)
		}
		next.ServeHTTP(w, r)
	})
}

// IsMaxBytesError reports whether a body-read (or JSON decode) error
// was caused by the MaxBytes cap.
func IsMaxBytesError(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// WithDeadline attaches a per-request deadline to the request context
// so downstream work (query scans, body reads) aborts instead of
// piling up behind slow requests. d <= 0 disables it. The handler is
// responsible for mapping the resulting context error to a structured
// 504 — the middleware deliberately does not buffer responses the way
// http.TimeoutHandler does, so streaming handlers stay zero-copy.
func WithDeadline(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// Config assembles the full traffic-armor stack.
type Config struct {
	// ReadRPS/ReadBurst budget cheap requests (GET/HEAD and read-only
	// POST queries); MutationRPS/MutationBurst budget corpus
	// mutations. Rate <= 0 disables that limiter.
	ReadRPS, ReadBurst         float64
	MutationRPS, MutationBurst float64
	// IsMutation classifies requests for the limiter split; nil
	// treats every non-GET/HEAD request as a mutation.
	IsMutation func(*http.Request) bool
	// TrustedProxies lists proxy networks whose X-Forwarded-For chains
	// the limiter may believe (see ClientIPTrusted). Empty means no
	// proxy is trusted and every request keys on its RemoteAddr.
	TrustedProxies []*net.IPNet
	// MaxInFlight bounds concurrent admitted requests; <= 0 disables
	// the gate.
	MaxInFlight int
	// RetryAfter is the hint returned with 503 sheds.
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies; <= 0 disables.
	MaxBodyBytes int64
	// RequestTimeout is the per-request deadline; <= 0 disables.
	RequestTimeout time.Duration
	// Exempt requests bypass the limiter and the gate (NOT the body
	// cap or deadline); nil exempts nothing. Health endpoints belong
	// here.
	Exempt func(*http.Request) bool
}

// Traffic is the composed armor stack plus its counters.
type Traffic struct {
	cfg      Config
	read     *Limiter
	mutation *Limiter
	gate     *Gate
	too413   atomic.Int64
	timeouts atomic.Int64
}

// NewTraffic builds the stack; disabled layers (zero limits) become
// pass-throughs.
func NewTraffic(cfg Config) *Traffic {
	t := &Traffic{cfg: cfg}
	if cfg.ReadRPS > 0 {
		t.read = NewLimiter(cfg.ReadRPS, cfg.ReadBurst)
	}
	if cfg.MutationRPS > 0 {
		t.mutation = NewLimiter(cfg.MutationRPS, cfg.MutationBurst)
	}
	if cfg.MaxInFlight > 0 {
		t.gate = NewGate(cfg.MaxInFlight, cfg.RetryAfter)
	}
	return t
}

// Wrap layers the stack around next, outermost first: rate limit
// (cheapest rejection) → load-shed gate → body cap → deadline →
// envelope fallback → next.
func (t *Traffic) Wrap(next http.Handler) http.Handler {
	h := EnvelopeFallback(next)
	h = WithDeadline(h, t.cfg.RequestTimeout)
	h = MaxBytes(h, t.cfg.MaxBodyBytes)
	if t.gate != nil {
		h = LoadShed(h, t.gate, t.cfg.Exempt)
	}
	if t.read != nil || t.mutation != nil {
		var key func(*http.Request) string
		if len(t.cfg.TrustedProxies) > 0 {
			trusted := t.cfg.TrustedProxies
			key = func(r *http.Request) string { return ClientIPTrusted(r, trusted) }
		}
		h = RateLimit(h, t.read, t.mutation, t.cfg.IsMutation, t.cfg.Exempt, key)
	}
	return h
}

// Note413 counts one structured 413; called by the server's decode
// helper when a body read trips the MaxBytes cap.
func (t *Traffic) Note413() { t.too413.Add(1) }

// NoteTimeout counts one request aborted by its deadline.
func (t *Traffic) NoteTimeout() { t.timeouts.Add(1) }

// TrafficStats is the /api/health "traffic" block.
type TrafficStats struct {
	InFlight      int64         `json:"inFlight"`
	InFlightLimit int64         `json:"inFlightLimit"`
	PeakInFlight  int64         `json:"peakInFlight"`
	Admitted      int64         `json:"admitted"`
	Rejected413   int64         `json:"rejected413"`
	Rejected429   int64         `json:"rejected429"`
	Shed503       int64         `json:"shed503"`
	Timeouts      int64         `json:"timeouts"`
	Read          *LimiterStats `json:"readLimiter,omitempty"`
	Mutation      *LimiterStats `json:"mutationLimiter,omitempty"`
}

// Stats snapshots every layer's counters.
func (t *Traffic) Stats() TrafficStats {
	s := TrafficStats{
		Rejected413: t.too413.Load(),
		Timeouts:    t.timeouts.Load(),
	}
	if t.gate != nil {
		gs := t.gate.Stats()
		s.InFlight = gs.InFlight
		s.InFlightLimit = gs.Limit
		s.PeakInFlight = gs.Peak
		s.Admitted = gs.Admitted
		s.Shed503 = gs.Shed
	}
	if t.read != nil {
		ls := t.read.Stats()
		s.Read = &ls
		s.Rejected429 += ls.Denied
	}
	if t.mutation != nil {
		ls := t.mutation.Stats()
		s.Mutation = &ls
		s.Rejected429 += ls.Denied
	}
	return s
}
