package surfaceweb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"webiq/internal/obs"
)

// cacheFixture builds a small engine with a few pages.
func cacheFixture() *Engine {
	e := NewEngine()
	e.Add("cars", "Popular makes such as Honda, Toyota, and Ford are in stock at our dealership.")
	e.Add("books", "Bestselling authors such as King and Rowling top the charts this week.")
	e.Add("more cars", "We sell makes such as Honda and Nissan at fair prices every day.")
	return e
}

func TestCachedEngineSameResults(t *testing.T) {
	e := cacheFixture()
	c := NewCachedEngine(e, 4)
	queries := []string{`"makes such as"`, `"authors such as"`, `"honda"`, `"no such phrase"`}
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

func TestCachedEngineMetrics(t *testing.T) {
	c := NewCachedEngine(cacheFixture(), 2)
	r := obs.NewRegistry()
	c.Instrument(r)
	c.NumHits(`"makes such as"`)
	c.NumHits(`"makes such as"`)
	c.Search(`"honda"`, 3)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`webiq_engine_cache_hits_total{op="numhits"} 1`,
		`webiq_engine_cache_misses_total{op="numhits"} 1`,
		`webiq_engine_cache_misses_total{op="search"} 1`,
		"webiq_engine_cache_entries 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

func TestCachedEngineReset(t *testing.T) {
	e := cacheFixture()
	c := NewCachedEngine(e, 2)
	c.NumHits(`"makes such as"`)
	c.NumHits(`"makes such as"`)
	c.Reset()
	if c.Len() != 0 || c.Hits() != 0 || c.Misses() != 0 || c.RawQueryCount() != 0 {
		t.Errorf("Reset left state: len=%d hits=%d misses=%d raw=%d",
			c.Len(), c.Hits(), c.Misses(), c.RawQueryCount())
	}
	before := e.QueryCount()
	c.NumHits(`"makes such as"`)
	if e.QueryCount() != before+1 {
		t.Error("query not re-executed after Reset")
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
