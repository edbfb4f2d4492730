package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"syscall"

	"culinary/internal/flavor"
	"culinary/internal/httpmw"
	"culinary/internal/recipedb"
	"culinary/internal/storage"
)

// Corpus mutation endpoints. Upserts and deletes flow through the
// recipedb store, which persists each mutation to the attached storage
// backend (when one is bound) before updating the in-memory indexes,
// bumping the corpus version — the version fence the query engine's
// result cache keys against — and notifying the mutation subscribers:
// the search index applies the change synchronously inside the same
// critical section (so an acked mutation is visible to the next
// search); the classifier and the recommender read the counters the
// same critical section patched. See internal/server/README.md for the
// per-endpoint freshness contract.

// upsertRequest is the POST /api/recipes body. ID is optional: absent
// (or null) inserts a new recipe; an existing slot ID replaces that
// recipe in place (reviving a deleted slot is allowed).
type upsertRequest struct {
	ID          *int     `json:"id"`
	Name        string   `json:"name"`
	Region      string   `json:"region"`
	Source      string   `json:"source"`
	Ingredients []string `json:"ingredients"`
}

// itemError is a wire-level rejection of one upsert item: the single
// endpoint turns it into that HTTP status, the batch endpoint into a
// per-item "rejected" result carrying the status's envelope code.
type itemError struct {
	status  int
	message string
}

// resolveUpsertItem maps one wire upsert onto a store batch item:
// region/source parsing, ingredient canonicalization (case and entity
// duplicates collapse silently to the first occurrence instead of
// bouncing off the store's duplicate check), and the explicit-ID slot
// bound — IDs must address an existing slot, clients cannot grow the ID
// space at arbitrary offsets over HTTP. All of this runs before the
// store's fan-in, so none of it holds the corpus write lock.
func (s *Server) resolveUpsertItem(req upsertRequest) (recipedb.BatchItem, *itemError) {
	var item recipedb.BatchItem
	if strings.TrimSpace(req.Name) == "" {
		return item, &itemError{http.StatusBadRequest, "missing recipe name"}
	}
	region, err := recipedb.ParseRegion(strings.ToUpper(req.Region))
	if err != nil {
		return item, &itemError{http.StatusUnprocessableEntity, err.Error()}
	}
	source, err := recipedb.ParseSource(req.Source)
	if err != nil {
		return item, &itemError{http.StatusUnprocessableEntity, err.Error()}
	}
	if len(req.Ingredients) == 0 {
		return item, &itemError{http.StatusUnprocessableEntity, "ingredients list is empty"}
	}
	ids := make([]flavor.ID, 0, len(req.Ingredients))
	seenName := make(map[string]bool, len(req.Ingredients))
	seenID := make(map[flavor.ID]bool, len(req.Ingredients))
	for _, name := range req.Ingredients {
		if key := strings.ToLower(strings.TrimSpace(name)); seenName[key] {
			continue
		} else {
			seenName[key] = true
		}
		id, ok := s.catalog.Lookup(name)
		if !ok {
			return item, &itemError{http.StatusUnprocessableEntity, fmt.Sprintf("unknown ingredient %q", name)}
		}
		if seenID[id] {
			continue
		}
		seenID[id] = true
		ids = append(ids, id)
	}
	item = recipedb.BatchItem{
		ID: -1, Name: req.Name, Region: region, Source: source, Ingredients: ids,
	}
	if req.ID != nil {
		if *req.ID < 0 || *req.ID >= s.cfg.Store.Slots() {
			return item, &itemError{http.StatusNotFound, fmt.Sprintf("no recipe slot %d", *req.ID)}
		}
		item.ID = *req.ID
	}
	return item, nil
}

// mutationAck is the body of an accepted upsert or delete: the recipe's
// slot and the corpus version the write produced.
type mutationAck struct {
	ID      int    `json:"id"`
	Version uint64 `json:"version"`
}

func (s *Server) handleUpsertRecipe(w http.ResponseWriter, r *http.Request) {
	var req upsertRequest
	if !s.decodeJSON(w, r, &req,
		"body must be JSON {\"name\", \"region\", \"source\", \"ingredients\": [...], \"id\"?}") {
		return
	}
	item, ierr := s.resolveUpsertItem(req)
	if ierr != nil {
		writeError(w, ierr.status, ierr.message)
		return
	}
	id, version, created, err := s.cfg.Store.Upsert(item.ID, item.Name, item.Region, item.Source, item.Ingredients)
	if err != nil {
		if errors.Is(err, recipedb.ErrValidation) {
			writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		s.writePersistenceError(w, err)
		return
	}
	// Re-stamp with the version this write produced: the gate stamped
	// the pre-mutation version, and the whole point of the header is
	// that a client can chain it into X-Min-Version without parsing
	// the body.
	w.Header().Set(CorpusVersionHeader, strconv.FormatUint(version, 10))
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	s.writeJSON(w, r, status, mutationAck{ID: id, Version: version})
}

// storageRetryAfterSeconds is the Retry-After hint on storage_unavailable
// responses. The store's background probe retries recovery on a much
// shorter period, so by the time a well-behaved client comes back the
// write path is up again if the fault has cleared.
const storageRetryAfterSeconds = 1

// writePersistenceError maps a recipedb persistence failure onto the
// structured envelope. Degraded-storage conditions — the store's write
// path wedged by an I/O fault, a full or quota-limited disk, a wedged
// compactor — are a retryable 503 with code storage_unavailable and a
// Retry-After hint: reads still serve and the store heals itself once
// the fault clears, so clients should back off and retry rather than
// treat the corpus as broken. Anything else is an opaque 500; the
// underlying error text stays in the server log instead of leaking
// filesystem paths and internal state to clients.
//
// Batch awareness: when one group-commit fault fails a whole coalesced
// write group, only the ops queued *behind* the fault carry a
// recognizable ErrWriteWedged — the op that hit the fault carries the
// raw I/O error. Any I/O failure on the commit path also degrades the
// engine, so consulting its health state here maps every queued item of
// the batch to the same retryable 503 instead of a scatter of generic
// 500s.
func (s *Server) writePersistenceError(w http.ResponseWriter, err error) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("persistence failure: %v", err)
	}
	degraded := errors.Is(err, storage.ErrWriteWedged) ||
		errors.Is(err, storage.ErrCompactorWedged) ||
		errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EDQUOT)
	if !degraded && s.cfg.DB != nil {
		degraded = s.cfg.DB.Health() != storage.HealthHealthy
	}
	if degraded {
		s.storage503.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(storageRetryAfterSeconds))
		httpmw.WriteError(w, http.StatusServiceUnavailable, httpmw.CodeStorageUnavailable,
			"storage is temporarily unavailable for writes; retry after the Retry-After interval")
		return
	}
	httpmw.WriteError(w, http.StatusInternalServerError, httpmw.CodeInternal,
		"persisting the mutation failed")
}

func (s *Server) handleDeleteRecipe(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad recipe id %q", r.PathValue("id")))
		return
	}
	version, err := s.cfg.Store.Remove(id)
	if err != nil {
		if errors.Is(err, recipedb.ErrNoRecipe) {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		s.writePersistenceError(w, err)
		return
	}
	w.Header().Set(CorpusVersionHeader, strconv.FormatUint(version, 10))
	s.writeJSON(w, r, http.StatusOK, mutationAck{ID: id, Version: version})
}
