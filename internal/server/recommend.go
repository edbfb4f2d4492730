package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
	"culinary/internal/recommend"
)

// completeRequest is the POST /api/complete body.
type completeRequest struct {
	Region      string   `json:"region"`
	Ingredients []string `json:"ingredients"`
	K           int      `json:"k"`
}

// completeEntry is one suggestion on the wire.
type completeEntry struct {
	Ingredient string  `json:"ingredient"`
	Category   string  `json:"category"`
	Score      float64 `json:"score"`
	FlavorFit  float64 `json:"flavorFit"`
	Popularity float64 `json:"popularity"`
}

// completeResponse is the POST /api/complete body. ModelVersion is the
// corpus version the region's counters were read at.
type completeResponse struct {
	ModelVersion       uint64          `json:"modelVersion"`
	Region             string          `json:"region"`
	Suggestions        []completeEntry `json:"suggestions"`
	UnknownIngredients []string        `json:"unknownIngredients,omitempty"`
}

// errEmptyCorpus is the model_unavailable cause of a completion asked
// of a corpus with no recipes.
var errEmptyCorpus = errors.New("recommend: empty corpus")

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !s.decodeJSON(w, r, &req, "body must be JSON {\"region\": \"ITA\", \"ingredients\": [...]}") {
		return
	}
	region, err := recipedb.ParseRegion(req.Region)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ids, unknown, err := s.resolveIngredients(req.Ingredients)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	k := req.K
	if k <= 0 {
		k = 5
	}
	if k > 50 {
		k = 50
	}
	var (
		modelVersion uint64
		sugs         []recommend.Suggestion
		empty        bool
	)
	s.cfg.Store.Read(func(v *recipedb.View) {
		modelVersion = v.Version
		if empty = v.Len() == 0; !empty {
			sugs, err = recommend.Complete(v, s.cfg.Analyzer, region, ids, recommend.CompleteOptions{K: k})
		}
	})
	if empty {
		s.writeModelUnavailable(w, errEmptyCorpus)
		return
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	out := make([]completeEntry, len(sugs))
	for i, sg := range sugs {
		ing := s.catalog.Ingredient(sg.Ingredient)
		out[i] = completeEntry{
			Ingredient: ing.Name,
			Category:   ing.Category.String(),
			Score:      sg.Score,
			FlavorFit:  sg.FlavorFit,
			Popularity: sg.Popularity,
		}
	}
	s.writeJSON(w, r, http.StatusOK, completeResponse{
		ModelVersion:       modelVersion,
		Region:             region.Code(),
		Suggestions:        out,
		UnknownIngredients: unknown,
	})
}

// substituteEntry is one replacement candidate on the wire.
type substituteEntry struct {
	Ingredient   string  `json:"ingredient"`
	Category     string  `json:"category"`
	Similarity   float64 `json:"similarity"`
	SameCategory bool    `json:"sameCategory"`
}

// substituteResponse is the GET /api/ingredients/{name}/substitutes body.
// Substitutes read the catalog only; ModelVersion is the corpus version
// the request was served at.
type substituteResponse struct {
	Ingredient   string            `json:"ingredient"`
	ModelVersion uint64            `json:"modelVersion"`
	Substitutes  []substituteEntry `json:"substitutes"`
}

func (s *Server) handleSubstitute(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id, ok := s.catalog.Lookup(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no ingredient %q", name))
		return
	}
	opts := recommend.SubstituteOptions{K: 5, RequireSameCategory: true}
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 || v > 50 {
			writeError(w, http.StatusBadRequest, "limit must be in [1,50]")
			return
		}
		opts.K = v
	}
	if raw := r.URL.Query().Get("anycategory"); raw == "1" || strings.EqualFold(raw, "true") {
		opts.RequireSameCategory = false
	}
	subs, err := recommend.Substitutes(s.catalog, id, opts)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	out := make([]substituteEntry, len(subs))
	for i, sub := range subs {
		ing := s.catalog.Ingredient(sub.Ingredient)
		out[i] = substituteEntry{
			Ingredient:   ing.Name,
			Category:     ing.Category.String(),
			Similarity:   sub.Similarity,
			SameCategory: sub.SameCategory,
		}
	}
	s.writeJSON(w, r, http.StatusOK, substituteResponse{Ingredient: name, ModelVersion: s.cfg.Store.Version(), Substitutes: out})
}

// tasteRequest is the POST /api/taste body.
type tasteRequest struct {
	Ingredients []string `json:"ingredients"`
	K           int      `json:"k"`
}

// tasteEntry is one descriptor weight on the wire.
type tasteEntry struct {
	Descriptor string  `json:"descriptor"`
	Weight     float64 `json:"weight"`
}

// tasteResponse is the POST /api/taste body.
type tasteResponse struct {
	Taste              []tasteEntry `json:"taste"`
	UnknownIngredients []string     `json:"unknownIngredients,omitempty"`
}

// handleTaste enumerates the taste of an ingredient list — the paper's
// §V question "Could it be possible to enumerate the taste of a
// recipe?" — as a normalized descriptor-weight vector.
func (s *Server) handleTaste(w http.ResponseWriter, r *http.Request) {
	var req tasteRequest
	if !s.decodeJSON(w, r, &req, "body must be JSON {\"ingredients\": [...]}") {
		return
	}
	ids, unknown, err := s.resolveIngredients(req.Ingredients)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	profile := s.catalog.TasteProfile(ids)
	if profile == nil {
		writeError(w, http.StatusUnprocessableEntity, "no flavor molecules in the given ingredients")
		return
	}
	k := req.K
	if k <= 0 {
		k = 10
	}
	if k < len(profile) {
		profile = profile[:k]
	}
	out := make([]tasteEntry, len(profile))
	for i, dw := range profile {
		out[i] = tasteEntry{Descriptor: dw.Descriptor, Weight: dw.Weight}
	}
	s.writeJSON(w, r, http.StatusOK, tasteResponse{Taste: out, UnknownIngredients: unknown})
}

// resolveIngredients maps names to catalog IDs, collecting unknowns.
// It fails only when nothing resolves.
func (s *Server) resolveIngredients(names []string) (ids []flavor.ID, unknown []string, err error) {
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("ingredients list is empty")
	}
	for _, name := range names {
		if id, ok := s.catalog.Lookup(name); ok {
			ids = append(ids, id)
		} else {
			unknown = append(unknown, name)
		}
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("none of the ingredients are known: %s", strings.Join(unknown, ", "))
	}
	return ids, unknown, nil
}
