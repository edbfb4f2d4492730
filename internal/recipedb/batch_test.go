package recipedb

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"culinary/internal/flavor"
)

// tombMark is how stateBackend records a tombstone in its key-state
// map, so two stores' durable states can be compared as maps.
const tombMark = "\x00tombstone"

// stateBackend is the package's one BatchBackend double: a thread-safe
// key-state map with per-key fault arming.
type stateBackend struct {
	mu    sync.Mutex
	state map[string]string
	puts  int
	fail  map[string]error // armed keys fail with their error
	delay time.Duration    // simulated commit latency, to provoke coalescing
}

func (b *stateBackend) WriteBatch(keys []string, values [][]byte, tombstones []bool) []error {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	errs := make([]error, len(keys))
	if b.state == nil {
		b.state = make(map[string]string)
	}
	for i, k := range keys {
		if err := b.fail[k]; err != nil {
			errs[i] = err
			continue
		}
		if tombstones[i] {
			b.state[k] = tombMark
		} else {
			b.state[k] = string(values[i])
			b.puts++
		}
	}
	return errs
}

// arm makes every later write of key fail with err.
func (b *stateBackend) arm(key string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.fail == nil {
		b.fail = make(map[string]error)
	}
	b.fail[key] = err
}

func (b *stateBackend) snapshot() map[string]string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]string, len(b.state))
	for k, v := range b.state {
		out[k] = v
	}
	return out
}

func (b *stateBackend) putCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.puts
}

// genMutationScript produces a deterministic randomized op sequence —
// inserts, addressed replaces (including slot extension), byte-identical
// kept candidates, removes of live and bogus slots, and validation
// failures — by simulating sequential application against a shadow
// model. Both stores of an equivalence test replay the same script.
func genMutationScript(rng *rand.Rand, n int) []BatchItem {
	type srec struct {
		name   string
		region Region
		source Source
		ing    []flavor.ID
	}
	live := make(map[int]srec)
	slots := 0
	regions := []Region{Italy, France, IndianSubcontinent}
	pool := testCatalog.Len()
	if pool > 64 {
		pool = 64
	}
	randIng := func(k int) []flavor.ID {
		perm := rng.Perm(pool)
		out := make([]flavor.ID, k)
		for i := range out {
			out[i] = flavor.ID(perm[i])
		}
		return out
	}
	liveSlots := func() []int {
		out := make([]int, 0, len(live))
		for id := range live {
			out = append(out, id)
		}
		sort.Ints(out)
		return out
	}
	var ops []BatchItem
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 3: // fresh insert
			r := srec{
				name:   fmt.Sprintf("gen insert %d", len(ops)),
				region: regions[rng.Intn(len(regions))],
				source: AllRecipes,
				ing:    randIng(2 + rng.Intn(4)),
			}
			ops = append(ops, BatchItem{ID: -1, Name: r.name, Region: r.region, Source: r.source, Ingredients: r.ing})
			live[slots] = r
			slots++
		case k < 5: // addressed upsert: replace, revive, or extend
			id := rng.Intn(slots + 2)
			r := srec{
				name:   fmt.Sprintf("gen upsert %d", len(ops)),
				region: regions[rng.Intn(len(regions))],
				source: AllRecipes,
				ing:    randIng(2 + rng.Intn(4)),
			}
			ops = append(ops, BatchItem{ID: id, Name: r.name, Region: r.region, Source: r.source, Ingredients: r.ing})
			if id >= slots {
				slots = id + 1
			}
			live[id] = r
		case k == 5: // byte-identical kept candidate
			ls := liveSlots()
			if len(ls) == 0 {
				continue
			}
			id := ls[rng.Intn(len(ls))]
			r := live[id]
			ops = append(ops, BatchItem{
				ID: id, Name: r.name, Region: r.region, Source: r.source,
				Ingredients: append([]flavor.ID(nil), r.ing...),
			})
		case k == 6: // remove a live slot
			ls := liveSlots()
			if len(ls) == 0 {
				continue
			}
			id := ls[rng.Intn(len(ls))]
			ops = append(ops, BatchItem{Remove: true, ID: id})
			delete(live, id)
		case k == 7: // remove a slot that does not exist -> ErrNoRecipe
			ops = append(ops, BatchItem{Remove: true, ID: slots + 3})
		case k == 8: // validation failure: single ingredient
			ops = append(ops, BatchItem{
				ID: -1, Name: fmt.Sprintf("bad %d", len(ops)), Region: Italy,
				Source: AllRecipes, Ingredients: randIng(1),
			})
		default: // validation failure: World is not a mutable region
			ops = append(ops, BatchItem{
				ID: -1, Name: fmt.Sprintf("bad %d", len(ops)), Region: World,
				Source: AllRecipes, Ingredients: randIng(2),
			})
		}
	}
	return ops
}

func sameResult(a, b BatchResult) bool {
	if a.ID != b.ID || a.Version != b.Version || a.Outcome != b.Outcome {
		return false
	}
	if (a.Err == nil) != (b.Err == nil) {
		return false
	}
	return a.Err == nil || a.Err.Error() == b.Err.Error()
}

// TestApplyBatchEquivalenceRandomized is the core correctness claim of
// the writer fan-in: chopping a mutation script into arbitrary batches
// leaves the corpus — dump, version, per-item results, and the durable
// backend state — byte-identical to applying the same script one item
// at a time.
func TestApplyBatchEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genMutationScript(rng, 120)

		seq := NewStore(testCatalog)
		seqBE := &stateBackend{}
		seq.SetBackend(seqBE)
		var seqResults []BatchResult
		for _, op := range script {
			seqResults = append(seqResults, seq.ApplyBatch([]BatchItem{op})...)
		}

		bat := NewStore(testCatalog)
		batBE := &stateBackend{}
		bat.SetBackend(batBE)
		var batResults []BatchResult
		for i := 0; i < len(script); {
			n := 1 + rng.Intn(8)
			if i+n > len(script) {
				n = len(script) - i
			}
			batResults = append(batResults, bat.ApplyBatch(script[i:i+n])...)
			i += n
		}

		for i := range script {
			if !sameResult(seqResults[i], batResults[i]) {
				t.Fatalf("seed %d op %d (%+v):\n  sequential %+v\n  batched    %+v",
					seed, i, script[i], seqResults[i], batResults[i])
			}
		}
		if sd, bd := seq.CanonicalDump(), bat.CanonicalDump(); sd != bd {
			t.Fatalf("seed %d corpus dumps diverge:\n--- sequential ---\n%s--- batched ---\n%s", seed, sd, bd)
		}
		if seq.Version() != bat.Version() {
			t.Fatalf("seed %d versions diverge: %d vs %d", seed, seq.Version(), bat.Version())
		}
		ss, bs := seqBE.snapshot(), batBE.snapshot()
		if len(ss) != len(bs) {
			t.Fatalf("seed %d backend key counts diverge: %d vs %d", seed, len(ss), len(bs))
		}
		for k, v := range ss {
			if bs[k] != v {
				t.Fatalf("seed %d backend key %q diverges: %q vs %q", seed, k, v, bs[k])
			}
		}
	}
}

// TestApplyBatchDuplicateIDsInOneBatch pins in-batch overlay semantics:
// later items see the effects of earlier ones exactly as sequential
// application would.
func TestApplyBatchDuplicateIDsInOneBatch(t *testing.T) {
	s := NewStore(testCatalog)
	res := s.ApplyBatch([]BatchItem{
		{ID: -1, Name: "a", Region: Italy, Source: AllRecipes, Ingredients: ids(t, "tomato", "basil")},
		{ID: 0, Name: "a2", Region: France, Source: AllRecipes, Ingredients: ids(t, "butter", "cream")},
		{Remove: true, ID: 0},
		{ID: 0, Name: "a3", Region: Italy, Source: AllRecipes, Ingredients: ids(t, "pasta", "garlic")},
		{ID: -1, Name: "b", Region: France, Source: AllRecipes, Ingredients: ids(t, "butter", "garlic")},
		{ID: -1, Name: "c", Region: Italy, Source: AllRecipes, Ingredients: ids(t, "tomato", "garlic")},
	})
	wantOutcomes := []Outcome{OutcomeCreated, OutcomeReplaced, OutcomeRemoved, OutcomeCreated, OutcomeCreated, OutcomeCreated}
	wantIDs := []int{0, 0, 0, 0, 1, 2}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if r.Outcome != wantOutcomes[i] || r.ID != wantIDs[i] {
			t.Fatalf("item %d = outcome %v id %d, want %v id %d", i, r.Outcome, r.ID, wantOutcomes[i], wantIDs[i])
		}
		if r.Version != uint64(i+1) {
			t.Fatalf("item %d version = %d, want %d", i, r.Version, i+1)
		}
	}
	if s.Version() != 6 || s.Len() != 3 || s.Slots() != 3 {
		t.Fatalf("final version/len/slots = %d/%d/%d", s.Version(), s.Len(), s.Slots())
	}
	if got := s.Recipe(0); got.Name != "a3" || got.Region != Italy {
		t.Fatalf("slot 0 = %+v", got)
	}
}

// TestApplyBatchMidBatchRejects: invalid items bounce in place with the
// same sentinel errors the single-item API uses, without disturbing
// their neighbors or consuming versions.
func TestApplyBatchMidBatchRejects(t *testing.T) {
	s := NewStore(testCatalog)
	res := s.ApplyBatch([]BatchItem{
		{ID: -1, Name: "ok1", Region: Italy, Source: AllRecipes, Ingredients: ids(t, "tomato", "basil")},
		{ID: -1, Name: "short", Region: Italy, Source: AllRecipes, Ingredients: ids(t, "tomato")},
		{Remove: true, ID: 99},
		{ID: -1, Name: "ok2", Region: France, Source: AllRecipes, Ingredients: ids(t, "butter", "cream")},
	})
	if res[0].Err != nil || res[0].Outcome != OutcomeCreated || res[0].Version != 1 {
		t.Fatalf("item 0 = %+v", res[0])
	}
	if !errors.Is(res[1].Err, ErrValidation) || res[1].Outcome != OutcomeRejected {
		t.Fatalf("item 1 = %+v", res[1])
	}
	if !errors.Is(res[2].Err, ErrNoRecipe) || res[2].Outcome != OutcomeRejected {
		t.Fatalf("item 2 = %+v", res[2])
	}
	if res[3].Err != nil || res[3].Outcome != OutcomeCreated || res[3].Version != 2 || res[3].ID != 1 {
		t.Fatalf("item 3 = %+v", res[3])
	}
	if s.Version() != 2 || s.Len() != 2 {
		t.Fatalf("version/len = %d/%d", s.Version(), s.Len())
	}
}

// TestApplyBatchKeptSemantics: byte-identical batch items are skipped
// without a write or version bump, both across batches and within one
// batch, while the single-item Upsert keeps its always-write contract.
func TestApplyBatchKeptSemantics(t *testing.T) {
	s := NewStore(testCatalog)
	be := &stateBackend{}
	s.SetBackend(be)

	item := BatchItem{ID: -1, Name: "a", Region: Italy, Source: AllRecipes, Ingredients: ids(t, "tomato", "basil")}
	r1 := s.ApplyBatch([]BatchItem{item})[0]
	if r1.Err != nil || r1.Outcome != OutcomeCreated {
		t.Fatalf("seed item = %+v", r1)
	}
	putsBefore := be.putCount()

	same := item
	same.ID = r1.ID
	r2 := s.ApplyBatch([]BatchItem{same})[0]
	if r2.Err != nil || r2.Outcome != OutcomeKept || r2.Version != r1.Version {
		t.Fatalf("identical re-ingest = %+v, want kept at version %d", r2, r1.Version)
	}
	if s.Version() != r1.Version {
		t.Fatalf("kept item bumped version to %d", s.Version())
	}
	if be.putCount() != putsBefore {
		t.Fatal("kept item reached the backend")
	}

	// In-batch kept: the duplicate dedupes against its in-group
	// predecessor and reports the predecessor's version.
	res := s.ApplyBatch([]BatchItem{
		{ID: 5, Name: "x", Region: France, Source: AllRecipes, Ingredients: ids(t, "butter", "cream")},
		{ID: 5, Name: "x", Region: France, Source: AllRecipes, Ingredients: ids(t, "butter", "cream")},
	})
	if res[0].Outcome != OutcomeCreated || res[1].Outcome != OutcomeKept {
		t.Fatalf("in-batch kept = %+v / %+v", res[0], res[1])
	}
	if res[1].Version != res[0].Version {
		t.Fatalf("kept version %d != predecessor version %d", res[1].Version, res[0].Version)
	}

	// Single Upsert with identical content still writes (always-write).
	v := s.Version()
	if _, nv, created, err := s.Upsert(r1.ID, item.Name, item.Region, item.Source, item.Ingredients); err != nil || created || nv != v+1 {
		t.Fatalf("Upsert identical: v=%d created=%v err=%v, want replace at v=%d", nv, created, err, v+1)
	}
}

// TestApplyBatchKeptAfterFailedPersist: a kept item whose in-group
// predecessor failed to persist loses its premise and fails with the
// predecessor's error instead of acking a write that never happened.
func TestApplyBatchKeptAfterFailedPersist(t *testing.T) {
	s := NewStore(testCatalog)
	be := &stateBackend{}
	s.SetBackend(be)
	if r := s.ApplyBatch([]BatchItem{{ID: -1, Name: "seed", Region: Italy, Source: AllRecipes, Ingredients: ids(t, "tomato", "basil")}})[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	v := s.Version()
	boom := errors.New("boom")
	be.arm(RecipeKey(1), boom)

	item := BatchItem{ID: 1, Name: "x", Region: France, Source: AllRecipes, Ingredients: ids(t, "butter", "cream")}
	res := s.ApplyBatch([]BatchItem{item, item})
	for i, r := range res {
		if !errors.Is(r.Err, boom) || r.Outcome != OutcomeRejected {
			t.Fatalf("item %d = %+v, want rejected with the persist error", i, r)
		}
	}
	if s.Version() != v || s.Slots() != 1 {
		t.Fatalf("failed batch mutated corpus: version %d slots %d", s.Version(), s.Slots())
	}
}

// TestBatchFanInStressRace hammers the fan-in with concurrent
// single-item and batch writers over a slow backend (forcing groups to
// pile up), then audits the full acked history: every version distinct
// and contiguous, and a version-ordered replay of the acked mutations
// into a fresh store reproduces the exact corpus dump — zero lost
// updates. Run under -race in CI.
func TestBatchFanInStressRace(t *testing.T) {
	s := NewStore(testCatalog)
	be := &stateBackend{delay: 200 * time.Microsecond}
	s.SetBackend(be)

	type acked struct {
		remove  bool
		id      int
		name    string
		region  Region
		ing     []flavor.ID
		version uint64
	}
	var mu sync.Mutex
	var history []acked
	record := func(a acked) {
		mu.Lock()
		history = append(history, a)
		mu.Unlock()
	}
	regions := []Region{Italy, France, IndianSubcontinent}

	const (
		soloWriters  = 6
		soloOps      = 60
		batchWriters = 2
		batchesPer   = 25
		perBatch     = 3
	)
	var wg sync.WaitGroup
	for w := 0; w < soloWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := regions[w%len(regions)]
			var mine []int
			for i := 0; i < soloOps; i++ {
				if i%7 == 3 && len(mine) > 0 {
					id := mine[0]
					mine = mine[1:]
					v, err := s.Remove(id)
					if err != nil {
						t.Errorf("solo %d remove: %v", w, err)
						return
					}
					record(acked{remove: true, id: id, version: v})
					continue
				}
				name := fmt.Sprintf("solo %d %d", w, i)
				ing := []flavor.ID{flavor.ID(w), flavor.ID(10 + i%20)}
				id, v, _, err := s.Upsert(-1, name, region, AllRecipes, ing)
				if err != nil {
					t.Errorf("solo %d upsert: %v", w, err)
					return
				}
				mine = append(mine, id)
				record(acked{id: id, name: name, region: region, ing: ing, version: v})
			}
		}(w)
	}
	for w := 0; w < batchWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			region := regions[w%len(regions)]
			for i := 0; i < batchesPer; i++ {
				items := make([]BatchItem, perBatch)
				for j := range items {
					items[j] = BatchItem{
						ID: -1, Name: fmt.Sprintf("bulk %d %d %d", w, i, j),
						Region: region, Source: AllRecipes,
						Ingredients: []flavor.ID{flavor.ID(30 + j), flavor.ID(40 + i%20)},
					}
				}
				for j, r := range s.ApplyBatch(items) {
					if r.Err != nil {
						t.Errorf("bulk %d item %d: %v", w, j, r.Err)
						return
					}
					record(acked{id: r.ID, name: items[j].Name, region: region, ing: items[j].Ingredients, version: r.Version})
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	sort.Slice(history, func(i, j int) bool { return history[i].version < history[j].version })
	for i, a := range history {
		if a.version != uint64(i+1) {
			t.Fatalf("acked versions not contiguous at %d: got %d", i, a.version)
		}
	}
	if got := s.Version(); got != uint64(len(history)) {
		t.Fatalf("store version %d != %d acked mutations", got, len(history))
	}

	replay := NewStore(testCatalog)
	for _, a := range history {
		var r BatchResult
		if a.remove {
			r = replay.ApplyBatch([]BatchItem{{Remove: true, ID: a.id}})[0]
		} else {
			r = replay.ApplyBatch([]BatchItem{{ID: a.id, Name: a.name, Region: a.region, Source: AllRecipes, Ingredients: a.ing}})[0]
		}
		if r.Err != nil {
			t.Fatalf("replaying version %d: %v", a.version, r.Err)
		}
	}
	if rd, sd := replay.CanonicalDump(), s.CanonicalDump(); rd != sd {
		t.Fatalf("replayed corpus diverges from live corpus:\n--- replay ---\n%s--- live ---\n%s", rd, sd)
	}

	bs := s.BatchStats()
	wantOps := uint64(soloWriters*soloOps + batchWriters*batchesPer*perBatch)
	if bs.Ops != wantOps {
		t.Fatalf("BatchStats.Ops = %d, want %d", bs.Ops, wantOps)
	}
	if bs.Coalesced == 0 {
		t.Fatal("no write group coalesced despite concurrent writers over a slow backend")
	}
	if bs.Batches == 0 || bs.MaxBatch < perBatch || bs.P50Batch < 1 {
		t.Fatalf("implausible stats: %+v", bs)
	}
}

// TestLoadEquivalenceRandomized holds Load to its definition: installing
// a slice of recipes — replacements, revivals, slot extensions with gaps,
// next-free-slot inserts, into a store that already has recipes,
// tombstones and a subscriber — in arbitrary chunks leaves the dump, the
// version and the delivered mutation stream identical to upserting the
// same recipes one at a time, and an invalid recipe stops both at the
// same point with the same error.
func TestLoadEquivalenceRandomized(t *testing.T) {
	type seen struct {
		version  uint64
		id       int
		old, new string
	}
	render := func(r *Recipe) string {
		if r == nil {
			return "<nil>"
		}
		return fmt.Sprintf("%d %q %d %d %v %v", r.ID, r.Name, r.Region, r.Source, r.Ingredients, r.Deleted)
	}
	record := func(s *Store, log *[]seen) {
		s.SubscribeBatch(nil, func(ms []Mutation) {
			for _, m := range ms {
				*log = append(*log, seen{m.Version, m.ID, render(m.Old), render(m.New)})
			}
		})
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genMutationScript(rng, 160)
		prefix, rest := script[:40], script[40:]

		var recs []Recipe
		for _, op := range rest {
			if !op.Remove {
				recs = append(recs, Recipe{ID: op.ID, Name: op.Name, Region: op.Region, Source: op.Source, Ingredients: op.Ingredients})
			}
		}

		one, bulk := NewStore(testCatalog), NewStore(testCatalog)
		one.ApplyBatch(prefix)
		bulk.ApplyBatch(prefix)
		var oneLog, bulkLog []seen
		record(one, &oneLog)
		record(bulk, &bulkLog)

		// The script plants invalid recipes; each stops a Load, which is
		// then resumed past it, exactly as the per-record loop steps over
		// the Upsert that failed.
		var oneErrs, bulkErrs []string
		for _, r := range recs {
			if _, _, _, err := one.Upsert(r.ID, r.Name, r.Region, r.Source, r.Ingredients); err != nil {
				oneErrs = append(oneErrs, err.Error())
			}
		}
		for i := 0; i < len(recs); {
			chunk := recs[i:min(len(recs), i+1+rng.Intn(12))]
			n, err := bulk.Load(chunk)
			i += n
			if err != nil {
				bulkErrs = append(bulkErrs, err.Error())
				i++ // recs[i] is the recipe err describes
			} else if n != len(chunk) {
				t.Fatalf("seed %d: Load installed %d of %d without an error", seed, n, len(chunk))
			}
		}

		if od, bd := one.CanonicalDump(), bulk.CanonicalDump(); od != bd {
			t.Fatalf("seed %d corpus dumps diverge:\n--- per record ---\n%s--- Load ---\n%s", seed, od, bd)
		}
		if one.Version() != bulk.Version() || one.Slots() != bulk.Slots() || one.Len() != bulk.Len() {
			t.Fatalf("seed %d version/slots/len %d/%d/%d vs %d/%d/%d", seed,
				one.Version(), one.Slots(), one.Len(), bulk.Version(), bulk.Slots(), bulk.Len())
		}
		if fmt.Sprint(oneLog) != fmt.Sprint(bulkLog) {
			t.Fatalf("seed %d: subscribers saw different mutation streams", seed)
		}
		if len(oneErrs) == 0 || fmt.Sprint(oneErrs) != fmt.Sprint(bulkErrs) {
			t.Fatalf("seed %d: errors diverge (or the script planted none):\n%v\n%v", seed, oneErrs, bulkErrs)
		}
	}
}

// TestLoadRefusesBackend: Load does not write through, so it must not
// run where a write-through is owed.
func TestLoadRefusesBackend(t *testing.T) {
	s := NewStore(testCatalog)
	s.SetBackend(&stateBackend{})
	n, err := s.Load([]Recipe{{ID: 0, Name: "dish", Region: Italy, Source: AllRecipes, Ingredients: []flavor.ID{1, 2}}})
	if err == nil || n != 0 || s.Slots() != 0 || s.Version() != 0 {
		t.Fatalf("Load with a backend = %d, %v; store now at %d slots, version %d", n, err, s.Slots(), s.Version())
	}
}
