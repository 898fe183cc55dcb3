package surfaceweb

import (
	"fmt"
	"sync"
	"testing"

	"webiq/internal/kb"
)

// batchTestEngine builds a small hand-crafted corpus exercising every
// query shape: repeated phrases, shared phrase prefixes, rare and
// missing terms, and multi-occurrence documents.
func batchTestEngine() *Engine {
	e := NewEngine()
	for i, text := range batchTestTexts {
		e.Add(string(rune('a'+i)), text)
	}
	return e
}

var batchTestTexts = []string{
	"authors such as hemingway and updike write novels",
	"authors such as hemingway are classic authors such as updike",
	"painters such as monet, not authors, paint",
	"hemingway wrote novels and novellas",
	"such books as these are rare; authors write them",
	"updike and hemingway; novels by authors such as both",
}

// batchTestQueries covers the shapes the validator issues plus the
// degenerate ones: single word, quoted multi-word phrases with shared
// prefixes, phrase+required, required-only, duplicates, unknown terms,
// and the empty query.
func batchTestQueries() []string {
	return []string{
		`"authors such as hemingway"`,
		`"authors such as updike"`,
		`"authors such as monet"`,
		`"authors"`,
		`"hemingway"`,
		`"such books as"`,
		`"painters such as monet"`,
		`"authors such as" +novels`,
		`"authors such as hemingway"`, // duplicate
		`+authors +novels`,
		`+zzz`,
		`"zzz yyy"`,
		``,
		`"authors such"`,
		`"such as"`,
	}
}

// TestNumHitsBatchMatchesScalar pins the core equivalence: the batch
// answers every query with exactly the scalar count, and charges the
// engine identically.
func TestNumHitsBatchMatchesScalar(t *testing.T) {
	scalarEng, batchEng := batchTestEngine(), batchTestEngine()
	queries := batchTestQueries()

	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = scalarEng.NumHits(q)
	}
	got := batchEng.NumHitsBatch(queries)
	for i := range queries {
		if got[i] != want[i] {
			t.Errorf("query %q: batch %d, scalar %d", queries[i], got[i], want[i])
		}
	}
	if got, want := batchEng.QueryCount(), scalarEng.QueryCount(); got != want {
		t.Errorf("QueryCount: batch %d, scalar %d", got, want)
	}
	if got, want := batchEng.VirtualTime(), scalarEng.VirtualTime(); got != want {
		t.Errorf("VirtualTime: batch %v, scalar %v", got, want)
	}
}

// TestNumHitsBatchOnGeneratedCorpus cross-checks batch and scalar
// counts over the full synthetic corpus with validator-shaped queries,
// so generated-text tokenization quirks are covered too.
func TestNumHitsBatchOnGeneratedCorpus(t *testing.T) {
	e := NewEngine()
	BuildCorpus(e, kb.Domains(), DefaultCorpusConfig())

	var queries []string
	for _, x := range []string{"hemingway", "toyota", "chicago", "software engineer", "zzz missing"} {
		for _, v := range []string{"authors such as", "such titles as", "cities"} {
			queries = append(queries, fmt.Sprintf("%q", v+" "+x))
		}
		queries = append(queries, fmt.Sprintf("%q", x))
	}
	got := e.NumHitsBatch(queries)
	for i, q := range queries {
		if want := e.NumHits(q); got[i] != want {
			t.Errorf("query %q: batch %d, scalar %d", q, got[i], want)
		}
	}
}

// TestCachedNumHitsBatchMatchesScalar demands the cached batch be
// indistinguishable from sequential scalar calls: same values, same
// hit/miss split, same raw and deduped accounting, same cache size.
func TestCachedNumHitsBatchMatchesScalar(t *testing.T) {
	scalar := NewCachedEngine(batchTestEngine(), 0)
	batched := NewCachedEngine(batchTestEngine(), 0)
	queries := batchTestQueries()

	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = scalar.NumHits(q)
	}
	// Split into two batches so the second exercises cross-batch cache
	// hits, exactly like a second attribute reusing phrase counts.
	half := len(queries) / 2
	got := batched.NumHitsBatch(queries[:half])
	got = append(got, batched.NumHitsBatch(queries[half:])...)

	for i := range queries {
		if got[i] != want[i] {
			t.Errorf("query %q: batch %d, scalar %d", queries[i], got[i], want[i])
		}
	}
	type acct struct {
		hits, misses, raw, deduped, entries int
		rawVirtual, virtual                 int64
	}
	snap := func(c *CachedEngine) acct {
		return acct{c.Hits(), c.Misses(), c.RawQueryCount(), c.QueryCount(), c.Len(),
			int64(c.RawVirtualTime()), int64(c.VirtualTime())}
	}
	if s, b := snap(scalar), snap(batched); s != b {
		t.Errorf("accounting diverged: scalar %+v, batched %+v", s, b)
	}
}

// TestCachedNumHitsBatchConcurrent hammers one cached engine with
// overlapping batches and scalar probes from many goroutines (run under
// -race). Every answer must be correct and the raw accounting must add
// up: each logical query is exactly one hit or one miss.
func TestCachedNumHitsBatchConcurrent(t *testing.T) {
	c := NewCachedEngine(batchTestEngine(), 0)
	queries := batchTestQueries()
	want := make([]int, len(queries))
	ref := batchTestEngine()
	for i, q := range queries {
		want[i] = ref.NumHits(q)
	}

	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan string, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				if (w+iter)%2 == 0 {
					got := c.NumHitsBatch(queries)
					for i := range queries {
						if got[i] != want[i] {
							errc <- fmt.Sprintf("batch query %q: got %d want %d", queries[i], got[i], want[i])
							return
						}
					}
				} else {
					for i, q := range queries {
						if got := c.NumHits(q); got != want[i] {
							errc <- fmt.Sprintf("scalar query %q: got %d want %d", q, got, want[i])
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}
	if c.Hits()+c.Misses() != c.RawQueryCount() {
		t.Errorf("accounting leak: hits %d + misses %d != raw %d", c.Hits(), c.Misses(), c.RawQueryCount())
	}
	// Every distinct canonical key executed exactly once despite the
	// concurrency: the deduped count equals the cache size.
	if c.QueryCount() != c.Len() {
		t.Errorf("deduped query count %d != cache entries %d", c.QueryCount(), c.Len())
	}
}

// TestAppendKeyMatchesKey pins the AppendKey refactor against the
// string-returning Key.
func TestAppendKeyMatchesKey(t *testing.T) {
	e := batchTestEngine()
	for _, q := range batchTestQueries() {
		cq := e.Compile(q)
		if got, want := string(cq.AppendKey(nil)), cq.Key(); got != want {
			t.Errorf("query %q: AppendKey %q, Key %q", q, got, want)
		}
	}
	// Required-term count past the stack-buffer size still sorts.
	cq := CompiledQuery{Required: []uint32{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}}
	if got, want := string(cq.AppendKey(nil)), cq.Key(); got != want {
		t.Errorf("long required list: AppendKey %q, Key %q", got, want)
	}
}
