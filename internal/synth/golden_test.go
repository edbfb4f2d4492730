package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"
)

// TestCorpusGolden pins the generated corpus bit for bit: the SHA-256 of
// CanonicalDump (every slot, name, source, ingredient list and posting
// list, plus the version) for TestConfig and DefaultConfig over the
// flavor.DefaultConfig catalog, recorded from the serial generator. Each
// region draws from its own stream and the regions install in region
// order, so the digest must not depend on how many CPUs generate them.
func TestCorpusGolden(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		recipes int
		sha256  string
	}{
		{"test", TestConfig(), 5490, "9420055783c330378eb442a7eeea49e2ca4576432703fa75be5b18f343ed0769"},
		{"full", DefaultConfig(), 45772, "3f23202f1d330463e6d9ef8f188860a6a91111e05d54f5e14ef96f4554487082"},
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, c := range cases {
				if c.name == "full" && testing.Short() {
					continue
				}
				store, err := Generate(testAnalyzer, c.cfg)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				if store.Len() != c.recipes || store.Slots() != c.recipes || store.Version() != uint64(c.recipes) {
					t.Errorf("%s: len %d slots %d version %d, want %d each",
						c.name, store.Len(), store.Slots(), store.Version(), c.recipes)
				}
				sum := sha256.Sum256([]byte(store.CanonicalDump()))
				if got := hex.EncodeToString(sum[:]); got != c.sha256 {
					t.Errorf("%s: CanonicalDump sha256 %s, want %s", c.name, got, c.sha256)
				}
			}
		})
	}
}
