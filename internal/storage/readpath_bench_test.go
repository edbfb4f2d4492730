package storage

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
)

// Read-path benchmarks: point reads over several sealed segments, hot
// set and uniform sweep. The "Pread" sub-benchmark name is the row name
// in BENCH_baseline.json. CI exports these as BENCH_readpath.json and
// the regression gate watches BenchmarkReadPathHotGet.

// readBenchKeys/readBenchHot size the working set: enough records to
// span several sealed segments, with a small hot set the parallel
// readers hammer — the shape an HTTP serving tier produces.
const (
	readBenchKeys    = 4096
	readBenchHot     = 64
	readBenchValSize = 128
)

// fillReadBench populates a store and returns the hot key set, drawn
// from the first half of the insertion order so every hot key lives in
// a sealed segment.
func fillReadBench(b *testing.B, s *Store) []string {
	b.Helper()
	val := bytes.Repeat([]byte("v"), readBenchValSize)
	keys := make([]string, readBenchKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
		if err := s.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	hot := make([]string, readBenchHot)
	for i := range hot {
		hot[i] = keys[(i*readBenchKeys/2)/readBenchHot]
	}
	return hot
}

// benchReadPath runs nextKey-driven point reads at 8 goroutines.
func benchReadPath(b *testing.B, nextKey func(hot []string, i int) string) {
	b.Run("Pread", func(b *testing.B) {
		s, err := Open(b.TempDir(), Options{MaxSegmentBytes: 128 << 10})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		hot := fillReadBench(b, s)
		var next atomic.Int64
		b.SetParallelism(benchParallelism)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := s.Get(nextKey(hot, int(next.Add(1)))); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkReadPathHotGet measures repeat point reads of a small hot
// set.
func BenchmarkReadPathHotGet(b *testing.B) {
	benchReadPath(b, func(hot []string, i int) string { return hot[i%len(hot)] })
}

// BenchmarkReadPathUniformGet sweeps the whole key space uniformly.
func BenchmarkReadPathUniformGet(b *testing.B) {
	benchReadPath(b, func(_ []string, i int) string { return fmt.Sprintf("key%06d", i%readBenchKeys) })
}
