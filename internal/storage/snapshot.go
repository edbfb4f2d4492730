package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"culinary/internal/flavor"
	"culinary/internal/recipedb"
)

// Snapshot layout. The corpus is stored one key per recipe plus three
// metadata keys (the format marker, the catalog config and
// recipedb.VersionKey), so tools can read, patch or delete individual recipes
// without rewriting the corpus. The per-recipe wire format and key
// scheme live in recipedb (shared with its write-through mutation
// path); this file layers the whole-corpus save/load protocol on top.
const (
	formatKey     = "meta/format"
	flavorCfgKey  = "meta/flavor-config"
	recipePrefix  = recipedb.RecipePrefix
	formatVersion = "culinarydb-snapshot/1"
)

// ErrSnapshot wraps snapshot encoding/decoding failures.
var ErrSnapshot = errors.New("storage: bad snapshot")

// decodeRecipe parses an encoded recipe body, wrapping failures in
// ErrSnapshot.
func decodeRecipe(data []byte) (name string, region recipedb.Region, source recipedb.Source, ids []flavor.ID, err error) {
	name, region, source, ids, err = recipedb.DecodeRecipe(data)
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	return name, region, source, ids, nil
}

// saveChunkRecords bounds one WriteBatch of a save, whose frames stay in
// memory until its single fsync: a full-scale corpus (45 772 recipes)
// costs a dozen fsyncs under SyncEveryPut instead of one per recipe.
const saveChunkRecords = 4096

// SaveCorpus writes the full recipe corpus and the catalog configuration
// into db, replacing any prior snapshot. The format marker is the
// commit record: it is deleted, in a commit of its own, before anything
// else changes and written back last, again on its own. The log is
// append-only and recovery trims only its tail, so a marker that
// survives a crash has every record of the save in front of it; an
// interrupted save reloads as "no snapshot", never as a short corpus.
func SaveCorpus(db *Store, corpus *recipedb.Store) error {
	return saveCorpus(db, corpus, saveChunkRecords)
}

// saveCorpus is SaveCorpus with the chunk size as a parameter, so the
// interrupted-save sweep can put chunk boundaries inside a small corpus.
func saveCorpus(db *Store, corpus *recipedb.Store, chunk int) error {
	cfg, err := json.Marshal(corpus.Catalog().Config())
	if err != nil {
		return fmt.Errorf("storage: marshaling flavor config: %w", err)
	}
	if err := db.Delete(formatKey); err != nil {
		return err
	}
	var keys []string
	var vals [][]byte
	var tombs []bool
	flush := func() error {
		for _, err := range db.WriteBatch(keys, vals, tombs) {
			if err != nil {
				return fmt.Errorf("storage: saving corpus: %w", err)
			}
		}
		keys, vals, tombs = keys[:0], vals[:0], tombs[:0]
		return nil
	}
	add := func(key string, val []byte) error { // nil val deletes key
		keys, vals, tombs = append(keys, key), append(vals, val), append(tombs, val == nil)
		if len(keys) < chunk {
			return nil
		}
		return flush()
	}
	if err := add(flavorCfgKey, cfg); err != nil {
		return err
	}
	// Drop recipes from any previous, larger snapshot, plus keys whose
	// slot the corpus has since tombstoned.
	for _, key := range db.KeysWithPrefix(recipePrefix) {
		if id, ok := recipedb.ParseRecipeKey(key); ok &&
			id < corpus.Slots() && !corpus.Recipe(id).Deleted {
			continue
		}
		if err := add(key, nil); err != nil {
			return err
		}
	}
	for i := 0; i < corpus.Slots(); i++ {
		r := corpus.Recipe(i)
		if r.Deleted {
			continue
		}
		if err := add(recipedb.RecipeKey(i), recipedb.EncodeRecipe(&r)); err != nil {
			return err
		}
	}
	if err := add(recipedb.VersionKey, recipedb.EncodeVersion(corpus.Version(), corpus.Slots())); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	if err := db.Put(formatKey, []byte(formatVersion)); err != nil {
		return err
	}
	return db.Sync()
}

// LoadCatalogConfig reads back the flavor configuration a snapshot was
// built against, so callers can rebuild the identical catalog.
func LoadCatalogConfig(db *Store) (flavor.Config, error) {
	raw, err := db.Get(flavorCfgKey)
	if err != nil {
		return flavor.Config{}, fmt.Errorf("storage: snapshot has no flavor config: %w", err)
	}
	var cfg flavor.Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return flavor.Config{}, fmt.Errorf("%w: flavor config: %v", ErrSnapshot, err)
	}
	return cfg, nil
}

// loadChunkRecipes bounds one recipedb.Load of a reload: decoded recipes
// wait in a slice this long before they are installed under one write
// critical section.
const loadChunkRecipes = 4096

// LoadCorpus reads a snapshot back into an in-memory recipe store bound
// to catalog. The catalog must have been built with the same
// configuration the snapshot records (checked), because ingredient IDs
// are dense catalog indices. Recipes are decoded as the fold delivers
// them and installed a chunk at a time (recipedb.Load); the resulting
// store is the one upserting every recipe under its own ID in key order
// would build, raised to the version and slot bound the snapshot's
// version record holds (recipedb.VersionKey).
func LoadCorpus(db *Store, catalog *flavor.Catalog) (*recipedb.Store, error) {
	format, err := db.Get(formatKey)
	if err != nil {
		return nil, fmt.Errorf("storage: not a corpus snapshot: %w", err)
	}
	if string(format) != formatVersion {
		return nil, fmt.Errorf("%w: format %q, want %q", ErrSnapshot, format, formatVersion)
	}
	cfg, err := LoadCatalogConfig(db)
	if err != nil {
		return nil, err
	}
	if cfg != catalog.Config() {
		return nil, fmt.Errorf("%w: snapshot catalog config differs from supplied catalog", ErrSnapshot)
	}
	corpus := recipedb.NewStore(catalog)
	chunk := make([]recipedb.Recipe, 0, loadChunkRecipes)
	// Installing with the explicit ID tombstones any gap left by deleted
	// recipes, so reloaded IDs match the saved corpus.
	install := func() error {
		if n, err := corpus.Load(chunk); err != nil {
			return fmt.Errorf("storage: recipe %s: %w", recipedb.RecipeKey(chunk[n].ID), err)
		}
		chunk = chunk[:0]
		return nil
	}
	// Fold delivers keys sorted, so IDs load in ascending order.
	err = db.Fold(func(key string, raw []byte) error {
		if !strings.HasPrefix(key, recipePrefix) {
			return nil
		}
		id, ok := recipedb.ParseRecipeKey(key)
		if !ok {
			return fmt.Errorf("%w: recipe key %q", ErrSnapshot, key)
		}
		name, region, source, ids, err := decodeRecipe(raw)
		if err != nil {
			return fmt.Errorf("storage: recipe %s: %w", key, err)
		}
		chunk = append(chunk, recipedb.Recipe{ID: id, Name: name, Region: region, Source: source, Ingredients: ids})
		if len(chunk) < loadChunkRecipes {
			return nil
		}
		return install()
	})
	if err != nil {
		return nil, err
	}
	if err := install(); err != nil {
		return nil, err
	}
	// The version record (absent from snapshots older than it) restores
	// what the live recipes alone cannot: the version the corpus was at
	// and its slot bound.
	raw, err := db.Get(recipedb.VersionKey)
	if errors.Is(err, ErrNotFound) {
		return corpus, nil
	}
	if err != nil {
		return nil, err
	}
	version, slots, err := recipedb.DecodeVersion(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	corpus.SyncSlots(slots) // no backend attached yet: nothing to fail
	corpus.SyncVersion(version)
	return corpus, nil
}
