package recipedb

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// referenceRecipeKey is the fmt-based AppendRecipeKey the appender
// replaced, kept verbatim as the oracle for its bytes.
func referenceRecipeKey(buf []byte, id int) []byte {
	return fmt.Appendf(buf, "%s%0*d", RecipePrefix, recipeKeyDigits, id)
}

// TestRecipeKeyMatchesReference compares AppendRecipeKey and RecipeKey
// byte for byte with the fmt form for every ID up to 10⁶, every power of
// ten up to math.MaxInt32 and its neighbours, and a few negatives, and
// parses each key back.
func TestRecipeKeyMatchesReference(t *testing.T) {
	var ids []int
	for id := 0; id <= 1_000_000; id++ {
		ids = append(ids, id)
	}
	for p := 10; p <= math.MaxInt32; p *= 10 {
		ids = append(ids, p-1, p, p+1)
	}
	ids = append(ids, math.MaxInt32-1, math.MaxInt32, math.MaxInt32+1, -1, -9_999_999, -10_000_000)
	buf := []byte("junk")
	for _, id := range ids {
		want := referenceRecipeKey(nil, id)
		buf = AppendRecipeKey(buf[:4], id)
		if !bytes.Equal(buf[4:], want) || string(buf[:4]) != "junk" {
			t.Fatalf("AppendRecipeKey(%d) = %q, reference %q", id, buf, want)
		}
		if got := RecipeKey(id); got != string(want) {
			t.Fatalf("RecipeKey(%d) = %q, reference %q", id, got, want)
		}
		if got, ok := ParseRecipeKey(string(want)); ok != (id >= 0) || ok && got != id {
			t.Fatalf("ParseRecipeKey(%q) = %d, %v", want, got, ok)
		}
	}
}

// TestRecipeKeyAllocations pins the appender at no allocation into a
// buffer with room and RecipeKey at one, the string it returns.
func TestRecipeKeyAllocations(t *testing.T) {
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() { buf = AppendRecipeKey(buf[:0], 45771) }); n != 0 {
		t.Errorf("AppendRecipeKey: %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { keySink = RecipeKey(45771) }); n != 1 {
		t.Errorf("RecipeKey: %.0f allocations, want 1", n)
	}
}

var keySink string
