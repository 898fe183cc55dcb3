package fnv1a

import (
	"hash/fnv"
	"testing"
)

// TestMatchesStdlib pins String to the standard library's FNV-1a and
// Add to hashing the concatenation.
func TestMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "book", "airfare/if03|a2|Boston", "München"} {
		h := fnv.New32a()
		h.Write([]byte(s))
		if got, want := String(s), h.Sum32(); got != want {
			t.Errorf("String(%q) = %d, want %d", s, got, want)
		}
	}
	if got, want := Add(Add(Offset, "airfare/"), "if03"), String("airfare/if03"); got != want {
		t.Errorf("Add in parts = %d, whole = %d", got, want)
	}
}
