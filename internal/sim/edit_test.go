package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"webiq/internal/nlp"
)

// levenshtein is the string form of the pooled DP, used by the tests.
func levenshtein(a, b string) int {
	sc := editPool.Get().(*editScratch)
	sc.fa = append(sc.fa[:0], a...)
	sc.fb = append(sc.fb[:0], b...)
	d := sc.levenshtein(sc.fa, sc.fb, -1)
	editPool.Put(sc)
	return d
}

// editSimReference is the pre-interning implementation, kept verbatim
// as the oracle for the pooled fast path.
func editSimReference(a, b string) float64 {
	a, b = fold(a), fold(b)
	if a == b {
		return 1
	}
	maxLen := len(a)
	if len(b) > maxLen {
		maxLen = len(b)
	}
	if maxLen == 0 {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return 1 - float64(prev[len(rb)])/float64(maxLen)
}

var foldCases = []string{
	"", "  ", "Honda", " Boston ", "NEW YORK", "first-class",
	"München", "ĲSSELMEER", "İstanbul", "ΣΟΦΟΣ", "bad\xffbyte",
	"\xc3\x28", "mixedCASE and Ünïcode", "\t trimmed \n",
}

func TestFoldAppendMatchesFold(t *testing.T) {
	for _, in := range foldCases {
		want := fold(in)
		got := string(foldAppend(nil, in))
		if got != want {
			t.Errorf("foldAppend(%q) = %q, want %q", in, got, want)
		}
	}
	f := func(s string) bool { return string(foldAppend(nil, s)) == fold(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEditSimMatchesReference(t *testing.T) {
	for _, a := range foldCases {
		for _, b := range foldCases {
			if got, want := EditSim(a, b), editSimReference(a, b); got != want {
				t.Errorf("EditSim(%q,%q) = %v, reference %v", a, b, got, want)
			}
		}
	}
	f := func(a, b string) bool { return EditSim(a, b) == editSimReference(a, b) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEditSimAtLeastExact(t *testing.T) {
	thresholds := []float64{-0.5, 0, 0.1, 0.5, 0.75, 0.9, 0.999, 1, 1.5}
	check := func(a, b string) {
		s := EditSim(a, b)
		for _, th := range thresholds {
			if got, want := EditSimAtLeast(a, b, th), s >= th; got != want {
				t.Errorf("EditSimAtLeast(%q,%q,%v) = %v, EditSim = %v", a, b, th, got, s)
			}
		}
	}
	for _, a := range foldCases {
		for _, b := range foldCases {
			check(a, b)
		}
	}
	// Random near-miss pairs around the 0.9 threshold used by borrowing.
	rng := rand.New(rand.NewSource(1))
	alphabet := "abcdefgABCDEFG éü"
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for i := 0; i < 500; i++ {
		a := randStr(rng.Intn(12))
		b := a
		if rng.Intn(2) == 0 {
			b = randStr(rng.Intn(12))
		} else if len(a) > 0 {
			// Mutate one byte so most pairs sit near the boundary.
			bb := []byte(a)
			bb[rng.Intn(len(bb))] = alphabet[rng.Intn(len(alphabet))]
			b = string(bb)
		}
		check(a, b)
	}
}

// TestEditBudgetMatchesFloatDefinition pins EditBudget to its
// definition, the largest d in [0, maxLen] with 1 − d/maxLen >= t in
// float64, over every length a value list realistically holds and the
// thresholds around the 0.9 borrowing cut.
func TestEditBudgetMatchesFloatDefinition(t *testing.T) {
	for _, th := range []float64{0.8, 0.85, 0.9, 0.95} {
		for maxLen := 0; maxLen <= 512; maxLen++ {
			want := -1
			for d := 0; d <= maxLen; d++ {
				if 1-float64(d)/float64(maxLen) >= th {
					want = d
				}
			}
			if got := EditBudget(maxLen, th); got != want {
				t.Errorf("EditBudget(%d, %v) = %d, want %d", maxLen, th, got, want)
			}
		}
	}
}

func TestEditSimZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; pool behavior differs under -race")
	}
	pairs := [][2]string{
		{"Boston Logan", "boston logan intl"},
		{"United Airlines", "Delta Air Lines"},
		{"economy", "Economy Plus"},
	}
	// Warm the pool so the measurement sees the steady state.
	for _, p := range pairs {
		EditSim(p[0], p[1])
		EditSimAtLeast(p[0], p[1], 0.9)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			EditSim(p[0], p[1])
			EditSimAtLeast(p[0], p[1], 0.9)
		}
	})
	if allocs != 0 {
		t.Errorf("EditSim steady state allocates %.1f objects/op, want 0", allocs)
	}
}

func TestFoldSetIDsMatchesFoldSet(t *testing.T) {
	tab := nlp.NewTermTable()
	vsA := []string{"Economy", "economy ", "Business", "First Class", "Première"}
	vsB := []string{"ECONOMY", "Premium", "first class"}
	idA, idB := FoldSetIDs(vsA, tab), FoldSetIDs(vsB, tab)
	strA, strB := FoldSet(vsA), FoldSet(vsB)
	if len(idA) != len(strA) || len(idB) != len(strB) {
		t.Fatalf("ID set sizes %d,%d; string set sizes %d,%d", len(idA), len(idB), len(strA), len(strB))
	}
	if got, want := OverlapIDSets(idA, idB), OverlapSets(strA, strB); got != want {
		t.Errorf("OverlapIDSets = %v, OverlapSets = %v", got, want)
	}
	if got := OverlapIDSets(nil, idB); got != 0 {
		t.Errorf("overlap with empty = %v", got)
	}
}

func BenchmarkEditSim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EditSim("Boston Logan International", "boston logan intl")
	}
}

func BenchmarkEditSimAtLeast(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EditSimAtLeast("Boston Logan International", "Chicago O'Hare", 0.9)
	}
}
