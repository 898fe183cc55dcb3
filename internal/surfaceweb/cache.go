package surfaceweb

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"webiq/internal/memo"
)

// CachedEngine wraps an Engine with a sharded, singleflight-deduplicated
// query cache that outlives one acquisition run. The corpus behind the
// engine is immutable, so a query's hit count and snippet list never
// change, and a run that repeats an earlier run's queries (warm
// re-acquisition, the experiments' shared cache) is answered without
// touching the engine. Within one run the pipeline's own memos already
// ask each distinct query once, so a cache that lives for one run
// answers nothing. Entries are keyed by the raw query string. Concurrent
// requests for the same uncached query are collapsed into a single
// engine execution (singleflight, by internal/memo), so a burst of
// identical queries from parallel workers charges the engine exactly
// once.
//
// Accounting policy: the wrapper keeps two views of the workload.
//
//   - Raw: every logical query, cache hit or not, counted by
//     RawQueryCount and charged its deterministic simulated latency into
//     RawVirtualTime — what a cacheless client (the paper's setup) would
//     have spent. The Figure-8 reproduction must see these numbers, which
//     is why the paper-reproduction benches run with the cache disabled
//     (equivalently, straight against the Engine).
//   - Deduped: only cache misses reach the inner engine and increment
//     its QueryCount/VirtualTime — what the optimized pipeline actually
//     spends. QueryCount and VirtualTime on the wrapper expose this view
//     so a CachedEngine is a drop-in replacement for an Engine in
//     accounting probes.
//
// CachedEngine implements the same Search/NumHits surface as Engine and
// is safe for concurrent use.
type CachedEngine struct {
	inner *Engine
	// counts and snippets memoize NumHits and Search answers apart, so
	// a stored hit count takes no room for a snippet list.
	counts   *memo.Memo[int]
	snippets *memo.Memo[[]Snippet]

	rawQueries atomic.Int64
	rawVirtual atomic.Int64 // nanoseconds
	hits       atomic.Int64
	misses     atomic.Int64
}

// DefaultCacheShards is the shard count used by NewCachedEngine when
// shards <= 0.
const DefaultCacheShards = 32

// NewCachedEngine wraps e with a query cache of the given shard count
// (<= 0 uses DefaultCacheShards). Each key is owned by one shard,
// chosen by hash, so concurrent queries for different keys rarely
// contend on the same mutex.
func NewCachedEngine(e *Engine, shards int) *CachedEngine {
	if shards <= 0 {
		shards = DefaultCacheShards
	}
	return &CachedEngine{inner: e, counts: memo.New[int](shards), snippets: memo.New[[]Snippet](shards)}
}

// account records one logical query in the raw view and the hit/miss
// outcome.
func (c *CachedEngine) account(query string, hit bool) {
	c.rawQueries.Add(1)
	c.rawVirtual.Add(int64(c.inner.QueryLatency(query)))
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// NumHits returns the number of documents matching the query, answering
// from the cache when possible. Entries are keyed by the raw query
// string: a lookup compiles nothing, and only a miss reaches the
// engine.
func (c *CachedEngine) NumHits(query string) int {
	// The key is built in a stack buffer; the memo copies it into a
	// string only on a miss.
	var kb [128]byte
	n, hit, _ := c.counts.Do(context.Background(), append(kb[:0], query...), func(string) (int, error) {
		return c.inner.NumHits(query), nil
	})
	c.account(query, hit)
	return n
}

// NumHitsBatch returns the hit count of each query in input order. It
// is NumHits called for each query in turn, so results, cache contents
// and raw/hit/miss accounting are identical to calling NumHits
// sequentially.
func (c *CachedEngine) NumHitsBatch(queries []string) []int {
	out := make([]int, len(queries))
	for i, q := range queries {
		out[i] = c.NumHits(q)
	}
	return out
}

// Search returns up to k result snippets for the query, answering from
// the cache when possible. Results are cached per (k, raw query) and
// the returned slice is the caller's to keep.
func (c *CachedEngine) Search(query string, k int) []Snippet {
	var kb [128]byte
	key := append(strconv.AppendInt(kb[:0], int64(k), 10), 0)
	snips, hit, _ := c.snippets.Do(context.Background(), append(key, query...), func(string) ([]Snippet, error) {
		return c.inner.Search(query, k), nil
	})
	c.account(query, hit)
	out := make([]Snippet, len(snips))
	copy(out, snips)
	return out
}

// QueryCount returns the deduplicated query count — the queries that
// actually reached the engine (plus any issued on the engine directly).
func (c *CachedEngine) QueryCount() int { return c.inner.QueryCount() }

// VirtualTime returns the deduplicated simulated retrieval time — the
// virtual time actually charged by the engine.
func (c *CachedEngine) VirtualTime() time.Duration { return c.inner.VirtualTime() }

// RawQueryCount returns the number of logical queries served, hits
// included — the query count a cacheless client would have issued.
func (c *CachedEngine) RawQueryCount() int { return int(c.rawQueries.Load()) }

// RawVirtualTime returns the simulated time a cacheless client would
// have spent on the queries served, hits included.
func (c *CachedEngine) RawVirtualTime() time.Duration {
	return time.Duration(c.rawVirtual.Load())
}

// Hits returns how many queries were answered from the cache.
func (c *CachedEngine) Hits() int { return int(c.hits.Load()) }

// Misses returns how many queries were executed on the engine.
func (c *CachedEngine) Misses() int { return int(c.misses.Load()) }

// Len returns the number of cached results; queries in flight are not
// counted.
func (c *CachedEngine) Len() int { return c.counts.Len() + c.snippets.Len() }
