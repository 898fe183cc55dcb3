package surfaceweb

import (
	"reflect"
	"testing"
)

// TestCachedEngineCanonicalDedupe pins the compiled-key behavior:
// queries that differ only in whitespace or '+' markers share one
// cache entry and one engine execution, while the raw view still
// accounts every logical query.
func TestCachedEngineCanonicalDedupe(t *testing.T) {
	e := NewEngine()
	e.Add("d1", "red apples and green apples")
	e.Add("d2", "green pears")
	c := NewCachedEngine(e, 4)

	variants := []string{"green apples", "green  apples", " green apples ", "+green +apples", "apples green"}
	want := c.NumHits(variants[0])
	for _, q := range variants[1:] {
		if got := c.NumHits(q); got != want {
			t.Errorf("NumHits(%q) = %d, want %d", q, got, want)
		}
	}
	if got := e.QueryCount(); got != 1 {
		t.Errorf("engine executed %d queries, want 1 (variants must dedupe)", got)
	}
	if c.Hits() != len(variants)-1 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", c.Hits(), c.Misses(), len(variants)-1)
	}
	if c.RawQueryCount() != len(variants) {
		t.Errorf("raw query count = %d, want %d (every logical query accounted)", c.RawQueryCount(), len(variants))
	}
	// The raw virtual time is the sum over the raw strings, not the
	// canonical form: each variant is billed its own deterministic
	// latency.
	var wantRaw int64
	for _, q := range variants {
		wantRaw += int64(e.QueryLatency(q))
	}
	if got := int64(c.RawVirtualTime()); got != wantRaw {
		t.Errorf("raw virtual time = %d, want %d", got, wantRaw)
	}

	// Search dedupes on (compiled form, k) and returns equal results.
	s1 := c.Search(`"green apples"`, 3)
	s2 := c.Search(`  "green apples"`, 3)
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("search variants disagree: %+v vs %+v", s1, s2)
	}
	if c.Len() != 2 { // one numhits entry + one search entry per distinct (key,k)
		t.Errorf("cache holds %d entries, want 2", c.Len())
	}
	// Distinct k must not dedupe.
	c.Search(`"green apples"`, 1)
	if c.Len() != 3 {
		t.Errorf("cache holds %d entries after k=1 search, want 3", c.Len())
	}
}

// TestCachedEngineKeepsUnseenWordsApart pins the cache key of words the
// corpus lacks: a frozen table compiles every one of them to NoTerm, so
// the key must carry their text. Two queries differing only in an
// unseen word are two engine queries, while whitespace, '+' and
// required-order variants of one query still share a key.
func TestCachedEngineKeepsUnseenWordsApart(t *testing.T) {
	e := batchTestEngine()
	c := NewCachedEngine(e, 4)
	for _, q := range []string{`"authors such as zzzq"`, `"authors such as yyyq"`} {
		if got := c.NumHits(q); got != 0 {
			t.Errorf("NumHits(%s) = %d, want 0", q, got)
		}
	}
	if got := e.QueryCount(); got != 2 {
		t.Errorf("engine executed %d queries, want 2 (distinct unseen words)", got)
	}

	distinct := [][2]string{
		{`+authors +zzzq`, `+authors +yyyq`},
		{`"zzzq yyyq"`, `"yyyq zzzq"`},
		{`zzzq`, `zzzq zzzq`},
		{`"zzzq"`, `zzzq`},
		{`"a b" zzzq`, `"a bzzzq"`},
		{`1,000 zzzq`, `1 000 zzzq`},
	}
	for _, p := range distinct {
		if a, b := e.Compile(p[0]).Key(), e.Compile(p[1]).Key(); a == b {
			t.Errorf("Key(%s) == Key(%s) = %q, want distinct", p[0], p[1], a)
		}
	}
	same := [][]string{
		{`"authors such as zzzq"`, ` "authors  such as zzzq" `},
		{`+zzzq +yyyq authors`, `yyyq authors zzzq`, `authors  +yyyq +zzzq`},
		{`"such as" +zzzq +hemingway +yyyq`, `"such as" yyyq hemingway zzzq`},
	}
	for _, group := range same {
		want := e.Compile(group[0]).Key()
		for _, q := range group[1:] {
			if got := e.Compile(q).Key(); got != want {
				t.Errorf("Key(%s) = %q, want %q (same as %s)", q, got, want, group[0])
			}
		}
	}
	before := e.QueryCount()
	for _, q := range same[1] {
		c.NumHits(q)
	}
	if got := e.QueryCount() - before; got != 1 {
		t.Errorf("required-order variants executed %d engine queries, want 1", got)
	}
}
