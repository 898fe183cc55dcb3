package surfaceweb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// cacheFixture builds a small engine with a few pages.
func cacheFixture() *Engine {
	e := NewEngine()
	e.Add("cars", "Popular makes such as Honda, Toyota, and Ford are in stock at our dealership.")
	e.Add("books", "Bestselling authors such as King and Rowling top the charts this week.")
	e.Add("more cars", "We sell makes such as Honda and Nissan at fair prices every day.")
	return e
}

// rawVariants parse to one query but are three raw strings, so the
// cache keeps three entries for them.
var rawVariants = []string{`makes honda`, `makes  honda`, `+honda +makes`}

func TestCachedEngineSameResults(t *testing.T) {
	e := cacheFixture()
	c := NewCachedEngine(e, 4)
	queries := append([]string{`"makes such as"`, `"authors such as"`, `"honda"`, `"no such phrase"`}, rawVariants...)
	for _, q := range queries {
		want := e.NumHits(q)
		if got := c.NumHits(q); got != want {
			t.Errorf("NumHits(%q) = %d via cache, %d direct", q, got, want)
		}
		// Second lookup must hit the cache and still agree.
		if got := c.NumHits(q); got != want {
			t.Errorf("cached NumHits(%q) = %d, want %d", q, got, want)
		}
		wantSnips := e.Search(q, 5)
		if got := c.Search(q, 5); !reflect.DeepEqual(got, wantSnips) && !(len(got) == 0 && len(wantSnips) == 0) {
			t.Errorf("Search(%q) mismatch: %v vs %v", q, got, wantSnips)
		}
	}
}

func TestCachedEngineDedupAccounting(t *testing.T) {
	e := cacheFixture()
	c := NewCachedEngine(e, 0)

	const repeats = 5
	q := `"makes such as"`
	var want int
	for i := 0; i < repeats; i++ {
		want = c.NumHits(q)
	}
	if want == 0 {
		t.Fatalf("fixture query matched nothing")
	}
	if got := e.QueryCount(); got != 1 {
		t.Errorf("engine executed %d queries, want 1 (deduped)", got)
	}
	if got := c.RawQueryCount(); got != repeats {
		t.Errorf("raw query count = %d, want %d", got, repeats)
	}
	if c.Hits() != repeats-1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want %d and 1", c.Hits(), c.Misses(), repeats-1)
	}
	// Raw virtual time is the per-query latency times the repeat count;
	// the engine was only charged once.
	if got, want := c.RawVirtualTime(), time.Duration(repeats)*e.QueryLatency(q); got != want {
		t.Errorf("raw virtual time = %v, want %v", got, want)
	}
	if got := e.VirtualTime(); got != e.QueryLatency(q) {
		t.Errorf("engine virtual time = %v, want one query's %v", got, e.QueryLatency(q))
	}

	// The cache is keyed by the raw string: each variant of one parsed
	// query is its own entry, missed once and hit on its repeat, and
	// answers what the engine answers for that string.
	ref := cacheFixture()
	for _, v := range rawVariants {
		for i := 0; i < 2; i++ {
			if got, want := c.NumHits(v), ref.NumHits(v); got != want {
				t.Errorf("NumHits(%q) = %d, engine %d", v, got, want)
			}
		}
	}
	n := len(rawVariants)
	if got := e.QueryCount(); got != 1+n {
		t.Errorf("engine executed %d queries, want %d (one per raw string)", got, 1+n)
	}
	if c.Hits() != repeats-1+n || c.Misses() != 1+n || c.Len() != 1+n {
		t.Errorf("hits=%d misses=%d entries=%d, want %d, %d and %d", c.Hits(), c.Misses(), c.Len(), repeats-1+n, 1+n, 1+n)
	}
	if got := c.RawQueryCount(); got != repeats+2*n {
		t.Errorf("raw query count = %d, want %d (every call)", got, repeats+2*n)
	}
}

func TestCachedEngineSearchCopies(t *testing.T) {
	c := NewCachedEngine(cacheFixture(), 2)
	got1 := c.Search(`"makes such as"`, 5)
	if len(got1) == 0 {
		t.Fatal("no results")
	}
	got1[0].Text = "CORRUPTED"
	got2 := c.Search(`"makes such as"`, 5)
	if got2[0].Text == "CORRUPTED" {
		t.Error("cache shares snippet slice with callers")
	}
}

func TestCachedEngineSearchKeyedByLimit(t *testing.T) {
	e := cacheFixture()
	c := NewCachedEngine(e, 2)
	if got, want := len(c.Search(`"makes such as"`, 1)), len(e.Search(`"makes such as"`, 1)); got != want {
		t.Fatalf("k=1: got %d snippets, want %d", got, want)
	}
	if got, want := len(c.Search(`"makes such as"`, 5)), len(e.Search(`"makes such as"`, 5)); got != want {
		t.Fatalf("k=5: got %d snippets, want %d", got, want)
	}
	// Raw variants of one search are separate entries too.
	for _, v := range rawVariants {
		if got, want := c.Search(v, 5), e.Search(v, 5); !reflect.DeepEqual(got, want) {
			t.Errorf("Search(%q, 5) = %+v, engine %+v", v, got, want)
		}
	}
	if got, want := c.Len(), 2+len(rawVariants); got != want {
		t.Errorf("cache holds %d entries, want %d", got, want)
	}
}

func TestCachedEngineSingleflight(t *testing.T) {
	e := cacheFixture()
	c := NewCachedEngine(e, 8)

	const goroutines = 32
	queries := []string{`"makes such as"`, `"authors such as"`, `"honda"`}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				c.NumHits(queries[(g+i)%len(queries)])
			}
		}(g)
	}
	close(start)
	wg.Wait()
	// However the goroutines interleave, each distinct query reaches the
	// engine exactly once.
	if got := e.QueryCount(); got != len(queries) {
		t.Errorf("engine executed %d queries, want %d (singleflight)", got, len(queries))
	}
	if got := c.RawQueryCount(); got != goroutines*20 {
		t.Errorf("raw count = %d, want %d", got, goroutines*20)
	}
}

// TestCachedNumHitsConcurrent hammers one cached engine with
// overlapping NumHits bursts from many goroutines (run under -race).
// Every answer must be correct and the raw accounting must add up: each
// logical query is exactly one hit or one miss.
func TestCachedNumHitsConcurrent(t *testing.T) {
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
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				for i, q := range queries {
					if got := c.NumHits(q); got != want[i] {
						errc <- fmt.Sprintf("query %q: got %d want %d", q, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Error(msg)
	}
	if c.Hits()+c.Misses() != c.RawQueryCount() {
		t.Errorf("accounting leak: hits %d + misses %d != raw %d", c.Hits(), c.Misses(), c.RawQueryCount())
	}
	// Every distinct raw query executed exactly once despite the
	// concurrency: the deduped count equals the cache size.
	if c.QueryCount() != c.Len() {
		t.Errorf("deduped query count %d != cache entries %d", c.QueryCount(), c.Len())
	}
}

func BenchmarkCachedNumHits(b *testing.B) {
	e := cacheFixture()
	for i := 0; i < 200; i++ {
		e.Add(fmt.Sprintf("page %d", i), "makes such as Honda and Toyota appear in page body text here")
	}
	c := NewCachedEngine(e, 0)
	q := `"makes such as" +honda`
	c.NumHits(q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NumHits(q)
	}
}
