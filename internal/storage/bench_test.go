package storage

import (
	"bytes"
	"fmt"
	"testing"

	"culinary/internal/flavor"
	"culinary/internal/pairing"
	"culinary/internal/synth"
)

// BenchmarkStoreOpenReplay measures Open, the first stage of a boot: on
// the directory `cmd/server -db` boots from — the paper-scale corpus as
// SaveCorpus leaves it, a 45 772-recipe checkpoint and an empty log,
// whose checksums Open verifies ("snapshot") — and on a log of 20 000
// records Open replays to find its end ("log"); and a checkpoint of the
// paper-scale corpus ("checkpoint").
func BenchmarkStoreOpenReplay(b *testing.B) {
	logDir := b.TempDir()
	s, err := Open(logDir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 256)
	for i := 0; i < 20000; i++ {
		if err := s.Put(fmt.Sprintf("key%09d", i%8000), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	catalog, err := flavor.Build(flavor.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := synth.Generate(pairing.NewAnalyzer(catalog), synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	snapshot := b.TempDir()
	if s, err = Open(snapshot, Options{}); err != nil {
		b.Fatal(err)
	}
	if err := SaveCorpus(s, corpus); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	b.Run("checkpoint", func(b *testing.B) {
		// The stall a full-scale checkpoint puts on writers: it runs
		// under the corpus's write token.
		s, err := Open(b.TempDir(), Options{SyncEveryPut: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if err := SaveCorpus(s, corpus); err != nil {
			b.Fatal(err)
		}
		corpus.SetBackend(s)
		defer corpus.SetBackend(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, c := range []struct {
		name string
		dir  string
	}{
		{"snapshot", snapshot},
		{"log", logDir},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := Open(c.dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}
