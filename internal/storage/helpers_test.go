package storage

import (
	"encoding/binary"
	"sort"
	"testing"
)

// liveKeys lists the store's live keys, sorted, from the same index Get
// answers from.
func liveKeys(s *Store) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.buildIndex(); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// keys is liveKeys for a test that cannot go on without them.
func keys(t testing.TB, s *Store) []string {
	t.Helper()
	out, err := liveKeys(s)
	if err != nil {
		t.Fatalf("indexing the store: %v", err)
	}
	return out
}

// has reports whether key is live.
func has(s *Store, key string) bool {
	_, err := s.Get(key)
	return err == nil
}

// checkpointImage frames recs as a checkpoint of generation gen.
func checkpointImage(gen uint64, recs ...record) []byte {
	hdr := binary.AppendUvarint(binary.AppendUvarint(nil, gen), uint64(len(recs)))
	img, _ := appendRecord(nil, record{key: []byte(formatKey), value: []byte(checkpointFormat)})
	img, _ = appendRecord(img, record{key: []byte(headerKey), value: hdr})
	for _, rec := range recs {
		img, _ = appendRecord(img, rec)
	}
	return img
}
