package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"culinary/internal/httpmw"
)

// Read-your-writes routing. Every mutation ack carries the corpus
// version it produced; a client that wants to read its own write from
// a replica repeats that token on the read as an X-Min-Version header
// (or ?minVersion= query parameter). A server whose corpus has not yet
// replayed to that version answers 503 replica_lagging with a
// Retry-After hint instead of serving a stale result — within one retry
// interval a healthy follower has caught up. The primary
// honors the same contract (trivially: it is never behind itself), so
// clients can send the token unconditionally and route reads anywhere.

// MinVersionHeader is the request header carrying a read's freshness
// floor; MinVersionParam is its query-parameter equivalent (the header
// wins when both are present).
const (
	MinVersionHeader = "X-Min-Version"
	MinVersionParam  = "minVersion"
	// CorpusVersionHeader stamps every response with the serving
	// corpus version, so clients can chain freshness floors without
	// parsing bodies.
	CorpusVersionHeader = "X-Corpus-Version"
)

// replicaRetryAfterSeconds is the Retry-After hint on replica_lagging
// responses; a follower's long-poll returns as soon as the primary
// commits, so one second spans at least one full replication round.
const replicaRetryAfterSeconds = 1

// minVersion extracts the freshness floor from a request. ok reports
// whether one was supplied; a malformed value is reported as an error.
func minVersion(r *http.Request) (v uint64, ok bool, err error) {
	raw := r.Header.Get(MinVersionHeader)
	if q := r.URL.RawQuery; raw == "" && (strings.Contains(q, MinVersionParam) || strings.Contains(q, "%")) {
		// Parsing the query allocates a map; a query that names no
		// minVersion, even percent-encoded, has none to parse for.
		raw = r.URL.Query().Get(MinVersionParam)
	}
	if raw == "" {
		return 0, false, nil
	}
	v, err = strconv.ParseUint(strings.TrimSpace(raw), 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s: %q", MinVersionHeader, raw)
	}
	return v, true, nil
}

// versionGate enforces the freshness floor, stamps every response with
// the serving corpus version and hands reads to the response cache at
// that version. One atomic load per request when no floor is supplied.
func (s *Server) versionGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := s.cfg.Store.Version()
		min, ok, err := minVersion(r)
		if err != nil {
			httpmw.WriteError(w, http.StatusBadRequest, httpmw.CodeBadRequest, err.Error())
			return
		}
		if ok && cur < min {
			w.Header().Set("Retry-After", strconv.Itoa(replicaRetryAfterSeconds))
			httpmw.WriteError(w, http.StatusServiceUnavailable, httpmw.CodeReplicaLagging,
				fmt.Sprintf("corpus at version %d, request requires %d", cur, min))
			return
		}
		w.Header().Set(CorpusVersionHeader, strconv.FormatUint(cur, 10))
		if s.cache != nil && cacheable(r) {
			s.serveCached(w, r, cur, next)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// handleNotPrimary rejects mutations on a read replica: 403
// not_primary with a Location header pointing the client at the
// primary's equivalent endpoint (when the primary's public URL is
// configured).
func (s *Server) handleNotPrimary(w http.ResponseWriter, r *http.Request) {
	if s.cfg.PrimaryURL != "" {
		w.Header().Set("Location", strings.TrimRight(s.cfg.PrimaryURL, "/")+r.URL.Path)
	}
	httpmw.WriteError(w, http.StatusForbidden, httpmw.CodeNotPrimary,
		"this server is a read replica; send mutations to the primary")
}
