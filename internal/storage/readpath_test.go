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

// TestPreallocatedTailNotReplayed: a crash leaves the log with its
// preallocated zero tail (and possibly torn garbage at the
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
			s, err := Open(dir, Options{})
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
			logical := s.logSize
			path := s.path(s.logName())
			crashClose(s) // no truncate, no final sync: tail stays
			if fi, err := os.Stat(path); err != nil || fi.Size() <= logical {
				t.Fatalf("the log is not preallocated past its end: %v, %v", fi, err)
			}

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
			if got := len(keys(t, s2)); got != len(want) {
				t.Fatalf("recovered %d keys, want %d", got, len(want))
			}
			for k, v := range want {
				got, err := s2.Get(k)
				if err != nil || string(got) != v {
					t.Fatalf("Get(%q) = %q, %v, want %q", k, got, err, v)
				}
			}
			// The repaired log ends at its logical size: appends resume
			// exactly at the crash point.
			if s2.logSize != logical {
				t.Errorf("recovered log size = %d, want %d", s2.logSize, logical)
			}
			if err := s2.Put("after", []byte("crash")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadPathStress is the -race proof for the point-read path: reads
// stay correct while writers append and every write drops the index the
// next Get rebuilds. Readers assert per-key monotonicity (a read never
// returns a value older than one the same goroutine already observed
// committed) and well-formedness (a read at a stale offset cannot
// produce a value carrying the right key prefix and a valid counter).
func TestReadPathStress(t *testing.T) {
	s := openTemp(t, Options{})
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

	// Churn: put+delete throwaway keys between the stable writes.
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

	select {
	case err := <-fail:
		close(stop)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(300 * time.Millisecond):
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
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
