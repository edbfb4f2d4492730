package storage

// WriteBatch is the engine's write entry point (Put and Delete are
// one-record batches). The whole record set joins a single commit group,
// so it costs one WriteAt and — under SyncEveryPut — one fsync, shared
// with any concurrent writers that piled into the same group. The
// returned slice aligns with the inputs: nil exactly when that record
// reached the configured durability level (or resolved as a
// redundant-tombstone no-op). A mid-batch I/O fault splits the set
// exactly like a fault splits a concurrent group — the durable prefix is
// applied and acknowledged, every other record carries the fault and is
// never visible.
//
// The signature uses parallel slices rather than a request struct so
// callers behind an interface boundary (recipedb.BatchBackend) can
// declare it without importing this package.
func (s *Store) WriteBatch(keys []string, values [][]byte, tombstones []bool) []error {
	n := len(keys)
	if len(values) != n || len(tombstones) != n {
		panic("storage: WriteBatch input slices differ in length")
	}
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if s.opts.ReadOnly {
		for i := range errs {
			errs[i] = ErrReadOnly
		}
		return errs
	}
	reqs := make([]*commitReq, n)
	for i := 0; i < n; i++ {
		rec := record{key: []byte(keys[i]), tombstone: tombstones[i]}
		if !rec.tombstone {
			rec.value = values[i]
		}
		framed, err := appendRecord(nil, rec)
		if err != nil {
			// Unframeable records (oversized key/value) poison the
			// whole batch before any byte is written: callers treat
			// the batch as one atomic submission, and a client error
			// this early must not let later records silently succeed
			// while an earlier one was dropped.
			for j := range errs {
				errs[j] = err
			}
			return errs
		}
		reqs[i] = &commitReq{key: keys[i], rec: rec, framed: framed}
	}
	s.commits.Do(reqs, s.commit)
	for i, req := range reqs {
		errs[i] = req.err
	}
	return errs
}
