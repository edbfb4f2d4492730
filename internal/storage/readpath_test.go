package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPreallocatedTailNotReplayed: a crash leaves the active segment
// with its preallocated zero tail (and possibly torn garbage at the
// logical end); reopening must recover exactly the committed records —
// the zero region never replays as data.
func TestPreallocatedTailNotReplayed(t *testing.T) {
	for _, garbage := range []bool{false, true} {
		name := "zeroTail"
		if garbage {
			name = "tornThenZeros"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{MaxSegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]string)
			for i := 0; i < 10; i++ {
				k := fmt.Sprintf("key%02d", i)
				v := strings.Repeat(string(rune('a'+i)), 15)
				want[k] = v
				if err := s.Put(k, []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			logical := s.active.size
			path := s.active.path
			crashClose(s) // no truncate, no final sync: tail stays

			if garbage {
				// A torn append: a few non-zero bytes at the logical
				// end, zeros (or EOF) after. Must be discarded, not
				// replayed, and must not hide the committed prefix.
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe}, logical); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open after crash: %v", err)
			}
			defer s2.Close()
			if got := s2.Len(); got != len(want) {
				t.Fatalf("recovered %d keys, want %d", got, len(want))
			}
			for k, v := range want {
				got, err := s2.Get(k)
				if err != nil || string(got) != v {
					t.Fatalf("Get(%q) = %q, %v, want %q", k, got, err, v)
				}
			}
			// The repaired segment must have been trimmed to its
			// logical size: appends resume exactly at the crash point.
			if s2.active.size != logical {
				t.Errorf("recovered active size = %d, want %d", s2.active.size, logical)
			}
			if err := s2.Put("after", []byte("crash")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadPathStress is the -race proof for the point-read path: reads
// stay correct while segments rotate and the background compactor
// retires them. Readers assert per-key monotonicity (a read never
// returns a value older than one the same goroutine already observed
// committed) and well-formedness (a garbage read — e.g. from a retired
// segment's descriptor — cannot produce a value carrying the right key
// prefix and a valid counter).
func TestReadPathStress(t *testing.T) {
	s := openTemp(t, Options{
		MaxSegmentBytes:      4096,
		CompactionFloorBytes: 1,
		CompactInterval:      time.Millisecond,
		CompactGarbageRatio:  0.2,
	})
	const stableKeys = 24
	key := func(i int) string { return fmt.Sprintf("stable/%03d", i) }
	pad := strings.Repeat("p", 48)
	encode := func(k string, ver int64) []byte {
		return []byte(k + "#" + strconv.FormatInt(ver, 10) + "#" + pad)
	}
	var committed [stableKeys]atomic.Int64
	for i := 0; i < stableKeys; i++ {
		if err := s.Put(key(i), encode(key(i), 0)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	fail := make(chan error, 16)
	report := func(err error) {
		select {
		case fail <- err:
		default:
		}
	}
	var wg sync.WaitGroup

	// Writers: bump versions on the stable keys; the version becomes
	// the committed floor only after Put returns.
	const writers = 2
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ver := int64(1); ; ver++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < stableKeys; i += writers {
					k := key(i)
					if err := s.Put(k, encode(k, ver)); err != nil {
						report(fmt.Errorf("put %s: %w", k, err))
						return
					}
					committed[i].Store(ver)
				}
			}
		}(w)
	}

	// Churn: put+delete throwaway keys so sealed segments accumulate
	// garbage and the compactor keeps retiring them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("churn/%03d", i%64)
			if err := s.Put(k, []byte(pad)); err != nil {
				report(fmt.Errorf("churn put: %w", err))
				return
			}
			if err := s.Delete(k); err != nil {
				report(fmt.Errorf("churn delete: %w", err))
				return
			}
		}
	}()

	// Readers: floor-then-read; the value must be well-formed and at
	// least as new as the floor observed before the read started.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rnd.Intn(stableKeys)
				k := key(i)
				floor := committed[i].Load()
				val, err := s.Get(k)
				if err != nil {
					report(fmt.Errorf("get %s: %w", k, err))
					return
				}
				parts := strings.SplitN(string(val), "#", 3)
				if len(parts) != 3 || parts[0] != k || parts[2] != pad {
					report(fmt.Errorf("malformed value for %s: %q", k, val))
					return
				}
				ver, err := strconv.ParseInt(parts[1], 10, 64)
				if err != nil {
					report(fmt.Errorf("bad version in %q: %w", val, err))
					return
				}
				if ver < floor {
					report(fmt.Errorf("stale read of %s: version %d < committed floor %d", k, ver, floor))
					return
				}
			}
		}(r)
	}

	// Run at least minRun, then keep going until a compaction pass has
	// completed under the readers, or the hard deadline expires (a
	// 1-vCPU box running the whole suite can starve any of the
	// goroutines for a while; a fixed window flakes).
	const minRun = 300 * time.Millisecond
	const maxRun = 15 * time.Second
	start := time.Now()
	engaged := func() bool { return s.CompactionStats().Runs > 0 }
	for {
		select {
		case err := <-fail:
			close(stop)
			wg.Wait()
			t.Fatal(err)
		case <-time.After(10 * time.Millisecond):
		}
		if el := time.Since(start); el >= maxRun || (el >= minRun && engaged()) {
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	if s.CompactionStats().Runs == 0 {
		t.Error("background compactor never completed a pass during the stress run")
	}

	// Final ground truth after all writers stopped.
	for i := 0; i < stableKeys; i++ {
		k := key(i)
		want := encode(k, committed[i].Load())
		got, err := s.Get(k)
		if err != nil {
			t.Fatalf("final Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final Get(%q) = %q, want %q", k, got, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
