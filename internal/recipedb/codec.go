package recipedb

import (
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"culinary/internal/flavor"
)

// ErrCodec wraps binary recipe decoding failures.
var ErrCodec = errors.New("recipedb: bad recipe encoding")

// RecipePrefix namespaces per-recipe keys in a persistence backend.
const RecipePrefix = "recipe/"

// recipeKeyDigits is the zero-padded width of the ID in a recipe key.
const recipeKeyDigits = 8

// RecipeKey renders the backend key for one recipe ID. Zero-padding
// keeps lexicographic key order equal to ID order, so sorted key scans
// reload recipes in ID order.
func RecipeKey(id int) string {
	var b [len(RecipePrefix) + 20]byte
	return string(AppendRecipeKey(b[:0], id))
}

// AppendRecipeKey appends RecipeKey(id) to buf: the prefix, then the ID
// zero-padded to recipeKeyDigits (a sign counts toward the width), the
// bytes fmt's "%s%08d" gives, without boxing either argument.
func AppendRecipeKey(buf []byte, id int) []byte {
	var d [20]byte
	digits := strconv.AppendInt(d[:0], int64(id), 10)
	buf = append(buf, RecipePrefix...)
	width := recipeKeyDigits
	if id < 0 {
		buf = append(buf, '-')
		digits, width = digits[1:], width-1
	}
	for i := len(digits); i < width; i++ {
		buf = append(buf, '0')
	}
	return append(buf, digits...)
}

// ParseRecipeKey is the inverse of RecipeKey: it reports false for any
// key RecipeKey would not have rendered (another namespace, trailing
// bytes, a sign, a missing or surplus zero pad).
func ParseRecipeKey(key string) (int, bool) {
	digits, ok := strings.CutPrefix(key, RecipePrefix)
	if !ok || len(digits) < recipeKeyDigits {
		return 0, false
	}
	// Padding stops at the pad width: a longer run of digits is an ID
	// too large for it, which RecipeKey renders without a leading zero.
	if len(digits) > recipeKeyDigits && digits[0] == '0' {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	id, err := strconv.Atoi(digits)
	if err != nil {
		return 0, false
	}
	return id, true
}

// VersionKey is the backend key of the version record: the corpus
// version and slot bound (EncodeVersion). A reload installs one version
// per live recipe and recovers only live slots, so without the record a
// corpus that served replaces and deletes would reboot at a lower
// version — reissuing version tokens clients already hold — and one whose
// top slots were deleted would hand their IDs out again. Every write
// group leads with the record (batch.go), storage.SaveCorpus writes it,
// and storage.LoadCorpus raises the reloaded corpus to it. A group
// records the version and bound it plans to reach, an upper bound on
// what a mid-group fault lets it commit: versions may skip, never
// regress.
const VersionKey = "meta/version"

// EncodeVersion serializes a version record: version, then slots, as
// uvarints.
func EncodeVersion(version uint64, slots int) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64)
	return binary.AppendUvarint(binary.AppendUvarint(buf, version), uint64(slots))
}

// DecodeVersion parses an EncodeVersion body.
func DecodeVersion(data []byte) (version uint64, slots int, err error) {
	version, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: version record: bad version", ErrCodec)
	}
	s, m := binary.Uvarint(data[n:])
	if m <= 0 || s > math.MaxInt32 || n+m != len(data) {
		return 0, 0, fmt.Errorf("%w: version record: bad slot bound", ErrCodec)
	}
	return version, int(s), nil
}

// EncodeRecipe serializes one recipe for a persistence backend:
//
//	region  uvarint
//	source  uvarint
//	name    uvarint length + bytes
//	nIngr   uvarint
//	ids     nIngr plain uvarints, original order preserved
func EncodeRecipe(r *Recipe) []byte { return AppendRecipe(nil, r) }

// AppendRecipe appends EncodeRecipe(r) to buf.
func AppendRecipe(buf []byte, r *Recipe) []byte {
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putUvarint(uint64(r.Region))
	putUvarint(uint64(r.Source))
	putUvarint(uint64(len(r.Name)))
	buf = append(buf, r.Name...)
	putUvarint(uint64(len(r.Ingredients)))
	for _, id := range r.Ingredients {
		putUvarint(uint64(id))
	}
	return buf
}

// DecodeRecipe parses an EncodeRecipe body. Nothing it returns aliases
// data.
func DecodeRecipe(data []byte) (name string, region Region, source Source, ids []flavor.ID, err error) {
	p := 0 // bytes of data consumed
	read := func() uint64 {
		if err != nil {
			return 0
		}
		v, n := binary.Uvarint(data[p:])
		switch {
		case n == 0:
			err = io.ErrUnexpectedEOF
		case n < 0:
			err = errors.New("uvarint overflows 64 bits")
		}
		if err != nil {
			return 0
		}
		p += n
		return v
	}
	region = Region(read())
	source = Source(read())
	nameLen := read()
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if nameLen > uint64(len(data)-p) {
		return "", 0, 0, nil, fmt.Errorf("%w: name length %d exceeds remaining %d", ErrCodec, nameLen, len(data)-p)
	}
	name = string(data[p : p+int(nameLen)])
	p += int(nameLen)
	n := read()
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if n > uint64(len(data)-p) { // each ID takes >= 1 byte
		return "", 0, 0, nil, fmt.Errorf("%w: ingredient count %d exceeds remaining bytes", ErrCodec, n)
	}
	ids = make([]flavor.ID, n)
	for i := range ids {
		ids[i] = flavor.ID(read())
	}
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if p != len(data) {
		return "", 0, 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(data)-p)
	}
	return name, region, source, ids, nil
}

// The CSV schema is one row per recipe:
//
//	id,name,region,source,ingredients
//
// where ingredients is a semicolon-separated list of canonical
// ingredient names. Names (not numeric IDs) keep exports stable across
// catalog rebuilds.

var csvHeader = []string{"id", "name", "region", "source", "ingredients"}

// WriteCSV exports every live recipe in the store.
func (s *Store) WriteCSV(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("recipedb: writing header: %w", err)
	}
	for i := range s.recipes {
		r := &s.recipes[i]
		if r.Deleted {
			continue
		}
		names := make([]string, len(r.Ingredients))
		for j, id := range r.Ingredients {
			names[j] = s.catalog.Ingredient(id).Name
		}
		row := []string{
			fmt.Sprintf("%d", r.ID),
			r.Name,
			r.Region.Code(),
			r.Source.String(),
			strings.Join(names, ";"),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("recipedb: writing recipe %d: %w", r.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads recipes from the CSV schema into a fresh store bound to
// catalog. Unknown ingredient names, regions, or sources are errors:
// corpus files must round-trip losslessly.
func ReadCSV(r io.Reader, catalog *flavor.Catalog) (*Store, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("recipedb: reading header: %w", err)
	}
	for i, h := range csvHeader {
		if header[i] != h {
			return nil, fmt.Errorf("recipedb: bad header column %d: %q, want %q", i, header[i], h)
		}
	}
	store := NewStore(catalog)
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("recipedb: line %d: %w", line, err)
		}
		line++
		region, err := ParseRegion(row[2])
		if err != nil {
			return nil, fmt.Errorf("recipedb: line %d: %w", line, err)
		}
		source, err := ParseSource(row[3])
		if err != nil {
			return nil, fmt.Errorf("recipedb: line %d: %w", line, err)
		}
		parts := strings.Split(row[4], ";")
		ids := make([]flavor.ID, 0, len(parts))
		for _, p := range parts {
			id, ok := catalog.Lookup(p)
			if !ok {
				return nil, fmt.Errorf("recipedb: line %d: unknown ingredient %q", line, p)
			}
			ids = append(ids, id)
		}
		if _, err := store.Add(row[1], region, source, ids); err != nil {
			return nil, fmt.Errorf("recipedb: line %d: %w", line, err)
		}
	}
	return store, nil
}

// recipeJSON is the JSON wire form of one recipe.
type recipeJSON struct {
	ID          int      `json:"id"`
	Name        string   `json:"name"`
	Region      string   `json:"region"`
	Source      string   `json:"source"`
	Ingredients []string `json:"ingredients"`
}

// corpusJSON is the JSON wire form of a whole corpus.
type corpusJSON struct {
	Recipes []recipeJSON `json:"recipes"`
}

// WriteJSON exports the live recipes as a single JSON document.
func (s *Store) WriteJSON(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	doc := corpusJSON{Recipes: make([]recipeJSON, 0, len(s.recipes))}
	for i := range s.recipes {
		r := &s.recipes[i]
		if r.Deleted {
			continue
		}
		names := make([]string, len(r.Ingredients))
		for j, id := range r.Ingredients {
			names[j] = s.catalog.Ingredient(id).Name
		}
		doc.Recipes = append(doc.Recipes, recipeJSON{
			ID: r.ID, Name: r.Name, Region: r.Region.Code(),
			Source: r.Source.String(), Ingredients: names,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// ReadJSON loads a corpus JSON document into a fresh store.
func ReadJSON(r io.Reader, catalog *flavor.Catalog) (*Store, error) {
	var doc corpusJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("recipedb: decoding JSON: %w", err)
	}
	store := NewStore(catalog)
	for i, rj := range doc.Recipes {
		region, err := ParseRegion(rj.Region)
		if err != nil {
			return nil, fmt.Errorf("recipedb: recipe %d: %w", i, err)
		}
		source, err := ParseSource(rj.Source)
		if err != nil {
			return nil, fmt.Errorf("recipedb: recipe %d: %w", i, err)
		}
		ids := make([]flavor.ID, 0, len(rj.Ingredients))
		for _, name := range rj.Ingredients {
			id, ok := catalog.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("recipedb: recipe %d: unknown ingredient %q", i, name)
			}
			ids = append(ids, id)
		}
		if _, err := store.Add(rj.Name, region, source, ids); err != nil {
			return nil, fmt.Errorf("recipedb: recipe %d: %w", i, err)
		}
	}
	return store, nil
}
