package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"culinary/internal/httpmw"
	"culinary/internal/recipedb"
)

// POST /api/recipes/batch — bulk ingest. The request's recipes are
// resolved (parsing, ingredient canonicalization) outside any lock,
// then applied through the store's writer fan-in as one coalesced
// group: one corpus critical section, one version publication, one
// storage group commit. Items are all-or-nothing individually, not
// collectively: an invalid item is rejected in place with the same
// code the single endpoint would have used while its neighbors apply,
// exactly as if the items had been POSTed sequentially. A storage-level
// failure is the one collective outcome — the whole request answers
// one 503 storage_unavailable envelope (see writePersistenceError).

// batchRequest is the POST /api/recipes/batch body.
type batchRequest struct {
	Recipes []upsertRequest `json:"recipes"`
}

// batchItemResult is one element of the response's "results" array,
// aligned with the request's recipes.
type batchItemResult struct {
	Index  int    `json:"index"`
	Status string `json:"status"` // created | replaced | kept | rejected
	// Applied/kept items carry the slot and the corpus version the
	// item produced (kept: the version it was verified against).
	ID      *int   `json:"id,omitempty"`
	Version uint64 `json:"version,omitempty"`
	// Rejected items carry the envelope code and message the single
	// endpoint would have answered with.
	Code    string `json:"code,omitempty"`
	Message string `json:"message,omitempty"`
}

// batchResponse is the POST /api/recipes/batch body: how many items
// wrote, the per-item results, and the newest version any item produced.
type batchResponse struct {
	Applied int               `json:"applied"`
	Results []batchItemResult `json:"results"`
	Version uint64            `json:"version"`
}

func (s *Server) handleBatchUpsert(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decodeJSON(w, r, &req,
		"body must be JSON {\"recipes\": [{\"name\", \"region\", \"source\", \"ingredients\": [...], \"id\"?}, ...]}") {
		return
	}
	if len(req.Recipes) == 0 {
		writeError(w, http.StatusUnprocessableEntity, "batch is empty")
		return
	}
	if len(req.Recipes) > DefaultMaxBatchItems {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("batch holds %d recipes, limit is %d", len(req.Recipes), DefaultMaxBatchItems))
		return
	}

	// Resolve every item up front; wire-level rejects never reach the
	// store. itemIdx maps the surviving items back to request indexes.
	results := make([]batchItemResult, len(req.Recipes))
	items := make([]recipedb.BatchItem, 0, len(req.Recipes))
	itemIdx := make([]int, 0, len(req.Recipes))
	for i, rec := range req.Recipes {
		results[i].Index = i
		item, ierr := s.resolveUpsertItem(rec)
		if ierr != nil {
			results[i].Status = "rejected"
			results[i].Code = httpmw.CodeForStatus(ierr.status)
			results[i].Message = ierr.message
			continue
		}
		items = append(items, item)
		itemIdx = append(itemIdx, i)
	}

	applied := 0
	var version uint64
	for j, res := range s.cfg.Store.ApplyBatch(items) {
		i := itemIdx[j]
		if res.Err != nil {
			if errors.Is(res.Err, recipedb.ErrValidation) || errors.Is(res.Err, recipedb.ErrNoRecipe) {
				results[i].Status = "rejected"
				results[i].Code = httpmw.CodeUnprocessable
				results[i].Message = res.Err.Error()
				continue
			}
			// A persistence fault. The storage engine degrades on any
			// commit-path I/O failure, so every queued item of this
			// group failed with it: answer the whole request with one
			// retryable storage_unavailable envelope rather than a
			// partial per-item scatter the client cannot safely replay.
			s.writePersistenceError(w, res.Err)
			return
		}
		id := res.ID
		results[i].Status = res.Outcome.String()
		results[i].ID = &id
		results[i].Version = res.Version
		if res.Outcome != recipedb.OutcomeKept {
			applied++
		}
		if res.Version > version {
			version = res.Version
		}
	}
	if version > 0 {
		// Re-stamp with the newest version the batch produced (the gate
		// stamped the pre-mutation version) so clients can chain the
		// header into X-Min-Version without parsing the body.
		w.Header().Set(CorpusVersionHeader, strconv.FormatUint(version, 10))
	}
	s.writeJSON(w, r, http.StatusOK, batchResponse{Applied: applied, Results: results, Version: version})
}
