package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReadersSingleWriter exercises the documented concurrency
// contract under the race detector: one writer streams puts and deletes
// while readers hammer Get/Has/Keys/Stats.
func TestConcurrentReadersSingleWriter(t *testing.T) {
	s := openTemp(t, Options{MaxSegmentBytes: 4096})
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
				s.Has("volatile")
				if s.Len() < 50 {
					readErrs <- errors.New("stable keys disappeared")
					return
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

// TestConcurrentStressThroughCompaction mixes Get/Put/Delete/Keys/
// Stats/Len/Fold while segments rotate and a compactor
// loops, under the race detector. Stable keys must stay visible and
// internally consistent through every compaction cycle.
func TestConcurrentStressThroughCompaction(t *testing.T) {
	s := openTemp(t, Options{MaxSegmentBytes: 2048, CompactionFloorBytes: 1})
	const stable = 64
	for i := 0; i < stable; i++ {
		if err := s.Put(fmt.Sprintf("stable/%03d", i), []byte("anchor")); err != nil {
			t.Fatal(err)
		}
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

	// Readers: point reads, membership, consistent-view scans.
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
				key := fmt.Sprintf("stable/%03d", (i*7+r)%stable)
				if v, err := s.Get(key); err != nil || string(v) != "anchor" {
					report(fmt.Errorf("Get(%s) = %q, %v", key, v, err))
					return
				}
				if n := s.Len(); n < stable {
					report(fmt.Errorf("Len = %d < %d stable keys", n, stable))
					return
				}
				if st := s.Stats(); st.Keys < stable {
					report(fmt.Errorf("Stats.Keys = %d < %d", st.Keys, stable))
					return
				}
				if i%32 == 0 {
					if ks := s.KeysWithPrefix("stable/"); len(ks) != stable {
						report(fmt.Errorf("KeysWithPrefix(stable/) = %d keys, want %d", len(ks), stable))
						return
					}
				}
			}
		}(r)
	}

	// Folder: every consistent snapshot must contain all stable keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			seen := 0
			err := s.Fold(func(k string, v []byte) error {
				if len(k) >= 7 && k[:7] == "stable/" {
					if string(v) != "anchor" {
						return fmt.Errorf("fold saw %s = %q", k, v)
					}
					seen++
				}
				return nil
			})
			if err != nil {
				report(fmt.Errorf("Fold: %w", err))
				return
			}
			if seen != stable {
				report(fmt.Errorf("Fold snapshot saw %d stable keys, want %d", seen, stable))
				return
			}
		}
	}()

	// Writers: churn volatile keys.
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
				key := fmt.Sprintf("volatile/w%d/%03d", w, i%97)
				if err := s.Put(key, []byte(fmt.Sprintf("gen%d", i))); err != nil {
					report(fmt.Errorf("Put(%s): %w", key, err))
					return
				}
				if i%5 == 4 {
					if err := s.Delete(key); err != nil {
						report(fmt.Errorf("Delete(%s): %w", key, err))
						return
					}
				}
			}
		}(w)
	}

	// Compactor: force the stop-the-world path repeatedly while traffic
	// is in flight.
	for c := 0; c < 6; c++ {
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact #%d: %v", c, err)
		}
	}
	close(stop)
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	// Final invariants: stable keys intact, stats coherent.
	if n := len(s.KeysWithPrefix("stable/")); n != stable {
		t.Errorf("final stable count = %d, want %d", n, stable)
	}
}

// TestConcurrentDeletesLogOneTombstone races many deleters of one key:
// the serialized commit check must let exactly one tombstone through.
func TestConcurrentDeletesLogOneTombstone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("contested", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Delete("contested"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s.Has("contested") {
		t.Error("key survived deletion")
	}
	s.Close()
	if n := countTombstones(t, dir, "contested"); n != 1 {
		t.Errorf("log has %d tombstones, want exactly 1", n)
	}
}

// TestConcurrentWriters verifies that parallel writers to distinct keys
// serialize safely and nothing is lost.
func TestConcurrentWriters(t *testing.T) {
	s := openTemp(t, Options{MaxSegmentBytes: 2048})
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
	if s.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", s.Len(), writers*perWriter)
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
