// Package alias implements the ingredient aliasing protocol of §IV.A:
// mapping free-text ingredient phrases ("2 jalapeno peppers, roasted and
// slit") onto catalog entities with their flavor profiles.
//
// The pipeline mirrors the paper's multi-step protocol:
//
//  1. lower-case, strip punctuation / special characters;
//  2. remove general and culinary stopwords and quantities;
//  3. singularize every token;
//  4. attempt exact match of the longest n-grams (n ≤ 6) against the
//     catalog vocabulary (canonical names and synonyms);
//  5. fall back to a small-edit-distance fuzzy match to absorb spelling
//     variations;
//  6. label leftovers as Partial (some tokens matched) or Unrecognized
//     (nothing matched) for manual curation, and feed their n-grams into
//     a curation report that surfaces frequently recurring unmatched
//     phrases — the mechanism the paper used to grow its synonym list.
package alias

import (
	"sort"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/textproc"
)

// Status classifies the outcome of aliasing one phrase.
type Status int

const (
	// Matched means the phrase resolved to exactly one catalog entity.
	Matched Status = iota
	// Partial means some tokens matched an entity but others remain; the
	// match is usable but flagged for curation (§IV.A "partial matches
	// ... were explicitly labeled for manual curation").
	Partial
	// Unrecognized means no catalog entity could be found.
	Unrecognized
)

// String returns the status display name.
func (s Status) String() string {
	switch s {
	case Matched:
		return "matched"
	case Partial:
		return "partial"
	case Unrecognized:
		return "unrecognized"
	default:
		return "invalid"
	}
}

// Match is the result of aliasing one ingredient phrase.
type Match struct {
	// Phrase is the raw input.
	Phrase string
	// Status classifies the outcome.
	Status Status
	// Ingredient is the resolved catalog ID (Invalid when Unrecognized).
	Ingredient flavor.ID
	// MatchedText is the normalized n-gram that matched.
	MatchedText string
	// Residual holds tokens left over after the match (Partial only).
	Residual []string
	// Fuzzy marks matches that needed edit-distance correction.
	Fuzzy bool
}

// Aliaser maps ingredient phrases to catalog entities.
type Aliaser struct {
	catalog *flavor.Catalog
	stop    *textproc.StopwordSet
	// vocab maps every recognizable normalized name to an ID.
	vocab map[string]flavor.ID
	// byLength holds vocabulary names grouped by token count for fuzzy
	// matching.
	byLength map[int][]string
	// maxTokens is the longest vocabulary name in tokens (≤ 6).
	maxTokens int
	// editBudget is the maximum edit distance for fuzzy matches.
	editBudget int
}

// Option customizes an Aliaser.
type Option func(*Aliaser)

// WithEditBudget sets the fuzzy-match edit budget (default 1; 0 disables
// fuzzy matching).
func WithEditBudget(budget int) Option {
	return func(a *Aliaser) { a.editBudget = budget }
}

// New builds an Aliaser over the catalog's vocabulary (canonical names
// plus synonyms).
func New(catalog *flavor.Catalog, opts ...Option) *Aliaser {
	a := &Aliaser{
		catalog:    catalog,
		stop:       textproc.DefaultStopwords(),
		vocab:      make(map[string]flavor.ID),
		byLength:   make(map[int][]string),
		editBudget: 1,
	}
	for _, opt := range opts {
		opt(a)
	}
	register := func(name string) {
		id, ok := catalog.Lookup(name)
		if !ok {
			return
		}
		norm := strings.Join(textproc.SingularizeTokens(textproc.Tokenize(name)), " ")
		if norm == "" {
			return
		}
		if _, dup := a.vocab[norm]; !dup {
			a.vocab[norm] = id
			n := len(strings.Fields(norm))
			a.byLength[n] = append(a.byLength[n], norm)
			if n > a.maxTokens {
				a.maxTokens = n
			}
		}
	}
	for _, name := range catalog.AllNames() {
		register(name)
	}
	if a.maxTokens > 6 {
		a.maxTokens = 6 // §IV.A: n-grams up to 6
	}
	for n := range a.byLength {
		sort.Strings(a.byLength[n])
	}
	return a
}

// VocabularySize returns the number of recognizable normalized names.
func (a *Aliaser) VocabularySize() int { return len(a.vocab) }

// Resolve aliases a single ingredient phrase.
func (a *Aliaser) Resolve(phrase string) Match {
	m := Match{Phrase: phrase, Ingredient: flavor.Invalid, Status: Unrecognized}
	tokens := textproc.SingularizeTokens(
		textproc.StripTokens(textproc.Tokenize(phrase), a.stop))
	if len(tokens) == 0 {
		return m
	}

	// Longest-n-gram-first exact matching.
	maxN := a.maxTokens
	if maxN > len(tokens) {
		maxN = len(tokens)
	}
	for n := maxN; n >= 1; n-- {
		for i := 0; i+n <= len(tokens); i++ {
			gram := strings.Join(tokens[i:i+n], " ")
			if n == 1 && textproc.IsGenericFoodWord(gram) {
				continue // a lone generic word is not a match (§III.B)
			}
			if id, ok := a.vocab[gram]; ok {
				m.Ingredient = id
				m.MatchedText = gram
				m.Residual = residual(tokens, i, n)
				if len(m.Residual) == 0 {
					m.Status = Matched
				} else {
					m.Status = Partial
				}
				return m
			}
		}
	}

	// Fuzzy fallback on the full token span and individual tokens.
	if a.editBudget > 0 {
		if id, text, ok := a.fuzzyLookup(strings.Join(tokens, " "), len(tokens)); ok {
			m.Ingredient = id
			m.MatchedText = text
			m.Status = Matched
			m.Fuzzy = true
			return m
		}
		for i, tok := range tokens {
			if textproc.IsGenericFoodWord(tok) || len(tok) < 4 {
				continue
			}
			if id, text, ok := a.fuzzyLookup(tok, 1); ok {
				m.Ingredient = id
				m.MatchedText = text
				m.Residual = residual(tokens, i, 1)
				m.Fuzzy = true
				if len(m.Residual) == 0 {
					m.Status = Matched
				} else {
					m.Status = Partial
				}
				return m
			}
		}
	}
	m.Residual = tokens
	return m
}

// fuzzyLookup scans vocabulary names with the same token count for one
// within the edit budget; the closest (then lexically first) wins.
func (a *Aliaser) fuzzyLookup(s string, ntokens int) (flavor.ID, string, bool) {
	best := ""
	bestDist := a.editBudget + 1
	for _, name := range a.byLength[ntokens] {
		if !textproc.WithinEditBudget(s, name, a.editBudget) {
			continue
		}
		d := textproc.Levenshtein(s, name)
		if d < bestDist {
			bestDist = d
			best = name
			if d == 0 {
				break
			}
		}
	}
	if best == "" {
		return flavor.Invalid, "", false
	}
	return a.vocab[best], best, true
}

// residual returns the tokens outside the matched span, dropping lone
// generic food words ("peppers" after "jalapeno" has matched): they name
// the same entity, not a second one, so they must not demote a clean
// match to Partial.
func residual(tokens []string, i, n int) []string {
	var out []string
	for k, tok := range tokens {
		if k >= i && k < i+n {
			continue
		}
		if textproc.IsGenericFoodWord(tok) {
			continue
		}
		out = append(out, tok)
	}
	return out
}

// ResolveAll aliases a batch of phrases.
func (a *Aliaser) ResolveAll(phrases []string) []Match {
	out := make([]Match, len(phrases))
	for i, p := range phrases {
		out[i] = a.Resolve(p)
	}
	return out
}
