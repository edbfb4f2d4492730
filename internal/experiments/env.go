// Package experiments contains one driver per table and figure of the
// paper's evaluation, plus the extension experiments the root README
// maps to their packages (higher-order tuples, robustness,
// evolution-model sweep, aliasing accuracy, rules, clusters, network).
// Each driver returns structured results and can render the same
// rows/series the paper reports.
package experiments

import (
	"fmt"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/recipedb"
	"culinary/internal/rng"
	"culinary/internal/synth"
)

// Env bundles the catalog, analyzer and corpus every experiment runs
// against, together with the null-model sample size.
type Env struct {
	Catalog  *flavor.Catalog
	Analyzer *pairing.Analyzer
	Store    *recipedb.Store
	// NullRecipes is the per-model randomized sample size; the paper
	// uses 100,000.
	NullRecipes int
	// Seed drives experiment-level randomness (null draws, bootstraps).
	Seed uint64
}

// Options configures environment construction.
type Options struct {
	// Scale is the corpus scale factor (1.0 = full 45,772 recipes).
	Scale float64
	// NullRecipes is the randomized-cuisine sample size per model.
	NullRecipes int
	// Seed drives both corpus generation and experiment randomness.
	Seed uint64
}

// DefaultOptions reproduces the paper's configuration.
func DefaultOptions() Options {
	return Options{Scale: 1.0, NullRecipes: pairing.DefaultNullRecipes, Seed: 20180416}
}

// TestOptions returns a fast configuration for tests.
func TestOptions() Options {
	return Options{Scale: 0.05, NullRecipes: 2000, Seed: 20180416}
}

// NewEnv builds the catalog, pairing analyzer and synthetic corpus.
func NewEnv(opts Options) (*Env, error) {
	if opts.Scale <= 0 {
		return nil, fmt.Errorf("experiments: scale %g must be positive", opts.Scale)
	}
	if opts.NullRecipes < 100 {
		return nil, fmt.Errorf("experiments: NullRecipes %d too small for stable moments", opts.NullRecipes)
	}
	fcfg := flavor.DefaultConfig()
	fcfg.Seed = opts.Seed
	catalog, err := flavor.Build(fcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: building catalog: %w", err)
	}
	analyzer := pairing.NewAnalyzer(catalog)
	scfg := synth.DefaultConfig()
	scfg.Seed = opts.Seed
	scfg.Scale = opts.Scale
	store, err := synth.Generate(analyzer, scfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating corpus: %w", err)
	}
	return &Env{
		Catalog:     catalog,
		Analyzer:    analyzer,
		Store:       store,
		NullRecipes: opts.NullRecipes,
		Seed:        opts.Seed,
	}, nil
}

// src derives a deterministic stream for one experiment arm.
func (e *Env) src(label uint64) *rng.Source {
	return rng.New(e.Seed).Split(label)
}
