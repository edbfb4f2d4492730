package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"culinary/internal/recipedb"
)

// TestConcurrentReadersSingleWriter exercises the documented concurrency
// contract under the race detector: one writer streams puts and deletes
// while readers hammer Get (every write drops the index the next Get
// rebuilds) and Stats.
func TestConcurrentReadersSingleWriter(t *testing.T) {
	s := openTemp(t, Options{})
	// Seed some stable keys readers can always find.
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("stable%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readErrs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("stable%02d", (i+r)%50)
				if _, err := s.Get(key); err != nil {
					readErrs <- fmt.Errorf("Get(%s): %w", key, err)
					return
				}
				has(s, "volatile")
				if i%16 == 0 {
					if ks, err := liveKeys(s); err != nil || len(ks) < 50 {
						readErrs <- fmt.Errorf("stable keys disappeared: %d, %v", len(ks), err)
						return
					}
				}
				_ = s.Stats()
			}
		}(r)
	}
	for i := 0; i < 500; i++ {
		if err := s.Put("volatile", []byte(fmt.Sprintf("gen%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := s.Delete("volatile"); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(readErrs)
	for err := range readErrs {
		t.Error(err)
	}
}

// TestConcurrentStressThroughCompaction mixes point reads of recipes
// no writer touches with corpus writers and checkpoints (compaction is
// a checkpoint), under the race detector: every Get of a stable recipe
// answers its bytes whichever file holds it at the moment, and the
// directory reloads as the corpus at the end.
func TestConcurrentStressThroughCompaction(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	const stable = 4 // churn and the writers below leave slots 0-3 alone
	want := make([][]byte, stable)
	for id := range want {
		r := corpus.Recipe(id)
		want[id] = recipedb.EncodeRecipe(&r)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := (i + r) % stable
				if v, err := s.Get(recipedb.RecipeKey(id)); err != nil || !bytes.Equal(v, want[id]) {
					report(fmt.Errorf("Get(recipe %d) = %q, %v", id, v, err))
					return
				}
				_ = s.Stats()
			}
		}(r)
	}
	r0 := corpus.Recipe(0)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := stable + w + 3*(i%10)
				if _, _, _, err := corpus.Upsert(id, fmt.Sprintf("gen %d", i), recipedb.Japan, recipedb.AllRecipes, r0.Ingredients); err != nil {
					report(fmt.Errorf("Upsert(%d): %w", id, err))
					return
				}
			}
		}(w)
	}
	for c := 0; c < 20; c++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint #%d: %v", c, err)
		}
	}
	close(stop)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	s.Close()
	if got := reloadDump(t, dir, Options{}); got != corpus.CanonicalDump() {
		t.Error("the directory does not reload as the corpus")
	}
}

// TestConcurrentDeletesLogOneTombstone races many deleters of one
// recipe through the corpus: recipedb's fan-in, the store's only
// serving-path writer, lets exactly one of them succeed, so the log
// holds exactly one tombstone.
func TestConcurrentDeletesLogOneTombstone(t *testing.T) {
	dir := t.TempDir()
	s, corpus := boundCorpus(t, dir, Options{})
	var wg sync.WaitGroup
	var removed atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := corpus.Remove(5); err == nil {
				removed.Add(1)
			} else if !errors.Is(err, recipedb.ErrNoRecipe) {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if removed.Load() != 1 || has(s, recipedb.RecipeKey(5)) {
		t.Errorf("%d deletes succeeded; key live = %v", removed.Load(), has(s, recipedb.RecipeKey(5)))
	}
	s.Close()
	if n := countTombstones(t, dir, recipedb.RecipeKey(5)); n != 1 {
		t.Errorf("log has %d tombstones, want exactly 1", n)
	}
}

// TestConcurrentWriters verifies that parallel writers to distinct keys
// serialize safely and nothing is lost.
func TestConcurrentWriters(t *testing.T) {
	s := openTemp(t, Options{})
	var wg sync.WaitGroup
	const writers, perWriter = 8, 100
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%03d", w, i)
				if err := s.Put(key, []byte(key)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := len(keys(t, s)); n != writers*perWriter {
		t.Fatalf("%d live keys, want %d", n, writers*perWriter)
	}
	// Spot-check values landed intact.
	for w := 0; w < writers; w++ {
		key := fmt.Sprintf("w%d-k%03d", w, perWriter-1)
		v, err := s.Get(key)
		if err != nil || string(v) != key {
			t.Errorf("Get(%s) = %q, %v", key, v, err)
		}
	}
}
