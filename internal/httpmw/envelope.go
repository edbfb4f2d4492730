// Package httpmw is the production-traffic armor in front of the API:
// a composable middleware stack providing per-IP token-bucket rate
// limiting with separate read/mutation budgets, request body size
// caps, per-request deadlines, an in-flight concurrency gate that
// sheds load with 503 + Retry-After instead of queueing unboundedly,
// and a uniform structured JSON error envelope for every 4xx/5xx.
//
// The layers are independent http.Handler wrappers so tests can
// exercise each alone; Traffic composes them in the documented order
// and aggregates their counters for /api/health. See
// internal/server/README.md for the chain order and tuning guidance.
package httpmw

import (
	"encoding/json"
	"net/http"
	"strings"
)

// Stable machine-readable error codes carried by the envelope. Clients
// dispatch on Code; Message is human-oriented and may change freely.
const (
	CodeBadRequest    = "bad_request"
	CodeNotFound      = "not_found"
	CodeMethod        = "method_not_allowed"
	CodeTooLarge      = "payload_too_large"
	CodeUnprocessable = "unprocessable"
	CodeRateLimited   = "rate_limited"
	CodeInternal      = "internal"
	CodeOverloaded    = "overloaded"
	CodeTimeout       = "timeout"
	// CodeStorageUnavailable marks a 503 caused by the storage engine's
	// write path being degraded by an I/O fault (disk full, write
	// error). Reads keep serving; mutations should be retried after the
	// Retry-After interval — the store recovers itself once the fault
	// clears.
	CodeStorageUnavailable = "storage_unavailable"
	// CodeModelUnavailable marks a 503 caused by a corpus that cannot
	// support a model (classifier, recommender) — e.g. an empty or
	// one-region corpus. Reads and search still serve; the model
	// returns once the corpus supports it again, so clients should
	// honor Retry-After.
	CodeModelUnavailable = "model_unavailable"
	// CodeReplicaLagging marks a 503 from a read replica that has not
	// yet replayed up to the version the request demanded via
	// X-Min-Version (or ?minVersion=). The state requested exists on
	// the primary and is in flight; clients should retry this replica
	// after Retry-After or route the read to the primary.
	CodeReplicaLagging = "replica_lagging"
	// CodeNotPrimary marks a 403 from a read replica refusing a
	// mutation: followers are read-only by construction, and the
	// response's Location header names the primary that accepts writes.
	CodeNotPrimary = "not_primary"
	// CodeResync marks a 410 from the replication feed's log for a
	// version it cannot serve the mutations after: older than its
	// in-memory backlog, or newer than the primary. Followers install
	// the feed's snapshot instead of retrying the read.
	CodeResync = "resync"
)

// ErrorDetail is the inner object of the error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Envelope is the uniform JSON error body: {"error":{"code","message"}}.
type Envelope struct {
	Error ErrorDetail `json:"error"`
}

// CodeForStatus maps an HTTP status to the default envelope code, so
// call sites that only know the status still emit a stable code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusMethodNotAllowed:
		return CodeMethod
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusServiceUnavailable:
		return CodeOverloaded
	case http.StatusGatewayTimeout:
		return CodeTimeout
	}
	if status >= 500 {
		return CodeInternal
	}
	return CodeBadRequest
}

// WriteError emits the structured envelope. An empty code falls back
// to CodeForStatus.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	if code == "" {
		code = CodeForStatus(status)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(Envelope{Error: ErrorDetail{Code: code, Message: message}})
}

// EnvelopeFallback guarantees the envelope contract for error
// responses produced below it that are not already JSON — primarily
// the ServeMux's own plain-text 404/405 pages. A 4xx/5xx WriteHeader
// with a non-JSON Content-Type is rewritten into the envelope (headers
// such as Allow survive; the plain-text body is swallowed). JSON error
// responses from handlers pass through untouched.
func EnvelopeFallback(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&envelopeWriter{ResponseWriter: w}, r)
	})
}

type envelopeWriter struct {
	http.ResponseWriter
	wroteHeader bool
	intercepted bool
}

// Unwrap supports http.ResponseController pass-through.
func (ew *envelopeWriter) Unwrap() http.ResponseWriter { return ew.ResponseWriter }

func (ew *envelopeWriter) WriteHeader(status int) {
	if ew.wroteHeader {
		return
	}
	ew.wroteHeader = true
	ct := ew.Header().Get("Content-Type")
	if status >= 400 && !strings.HasPrefix(ct, "application/json") {
		ew.intercepted = true
		ew.Header().Set("Content-Type", "application/json")
		ew.Header().Del("Content-Length")
		ew.Header().Del("X-Content-Type-Options")
		ew.ResponseWriter.WriteHeader(status)
		body, _ := json.Marshal(Envelope{Error: ErrorDetail{
			Code:    CodeForStatus(status),
			Message: http.StatusText(status),
		}})
		ew.ResponseWriter.Write(append(body, '\n'))
		return
	}
	ew.ResponseWriter.WriteHeader(status)
}

func (ew *envelopeWriter) Write(p []byte) (int, error) {
	if !ew.wroteHeader {
		ew.WriteHeader(http.StatusOK)
	}
	if ew.intercepted {
		// The replacement body was already written; report success so
		// the inner handler completes normally.
		return len(p), nil
	}
	return ew.ResponseWriter.Write(p)
}
