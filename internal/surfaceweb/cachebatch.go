package surfaceweb

import "sync"

// Batched cache front-end. NumHitsBatch preserves the scalar path's
// semantics exactly — same canonical keys, same raw/deduped accounting,
// same singleflight discipline — while collapsing a whole validation
// burst into at most one engine pass:
//
//   - Within the batch, the first occurrence of an uncached key is the
//     miss and every later occurrence is a hit, which is precisely what
//     a sequential scalar caller would record.
//   - All batch misses execute on the inner engine as one
//     NumHitsBatchCompiled call.
//   - Keys already in flight from OTHER callers are waited on only
//     after our own misses have executed and been committed, so two
//     overlapping batches never deadlock on each other.

// cbState is the resolution state of one deduplicated batch key.
type cbState uint8

const (
	cbCached cbState = iota // value known from the cache
	cbMiss                  // ours to execute; fl is our registered flight
	cbWait                  // foreign in-flight execution; fl is theirs
)

// cbEntry is one deduplicated key of a cache batch.
type cbEntry struct {
	key   string // canonical cache key, materialized once
	cq    CompiledQuery
	query string // raw string charged on execution (first occurrence's)
	state cbState
	val   int
	fl    *flight
}

// cacheBatchScratch is the pooled working set of one NumHitsBatch call.
type cacheBatchScratch struct {
	keyBuf  []byte
	seen    map[string]int // canonical key -> index into entries
	entries []cbEntry
	dedup   []int // per input query: index into entries
	qs      []BatchQuery
}

var cacheBatchPool = sync.Pool{New: func() any {
	return &cacheBatchScratch{seen: map[string]int{}}
}}

// NumHitsBatch answers many queries in one pass, returning the hit
// count of each in input order. Results, cache contents, and raw/hit/
// miss accounting are identical to calling NumHits sequentially for the
// same queries; the engine work for all batch misses is done in a
// single batched execution.
func (c *CachedEngine) NumHitsBatch(queries []string) []int {
	out := make([]int, len(queries))
	if len(queries) == 0 {
		return out
	}
	sc := cacheBatchPool.Get().(*cacheBatchScratch)
	entries := sc.entries[:0]
	dedup := sc.dedup[:0]
	clear(sc.seen)

	// Pass 1: compile, dedupe within the batch, and classify each
	// distinct key against the cache. Accounting happens per logical
	// query, in input order, exactly as the scalar path would.
	for _, q := range queries {
		cq := c.inner.Compile(q)
		buf := append(sc.keyBuf[:0], 'h', 0)
		buf = cq.AppendKey(buf)
		sc.keyBuf = buf

		if at, ok := sc.seen[string(buf)]; ok { // zero-copy probe
			dedup = append(dedup, at)
			c.account(q, "numhits", true)
			continue
		}
		key := string(buf)
		e := cbEntry{key: key, cq: cq, query: q}
		sh := c.shard(key)
		sh.mu.Lock()
		if v, ok := sh.vals[key]; ok {
			e.state, e.val = cbCached, v.hits
			sh.mu.Unlock()
			c.account(q, "numhits", true)
		} else if f, ok := sh.inflight[key]; ok {
			e.state, e.fl = cbWait, f
			sh.mu.Unlock()
			c.account(q, "numhits", true)
		} else {
			e.state = cbMiss
			e.fl = &flight{done: make(chan struct{})}
			sh.inflight[key] = e.fl
			sh.mu.Unlock()
			c.account(q, "numhits", false)
		}
		sc.seen[key] = len(entries)
		dedup = append(dedup, len(entries))
		entries = append(entries, e)
	}

	// Pass 2: execute all our misses as one engine batch, then commit
	// each result and release its flight.
	qs := sc.qs[:0]
	for i := range entries {
		if entries[i].state == cbMiss {
			qs = append(qs, BatchQuery{CQ: entries[i].cq, Charged: entries[i].query})
		}
	}
	sc.qs = qs
	if len(qs) > 0 {
		counts := c.inner.NumHitsBatchCompiled(qs)
		at := 0
		for i := range entries {
			e := &entries[i]
			if e.state != cbMiss {
				continue
			}
			e.val = counts[at]
			at++
			e.fl.val = cacheValue{hits: e.val}
			sh := c.shard(e.key)
			sh.mu.Lock()
			sh.vals[e.key] = e.fl.val
			delete(sh.inflight, e.key)
			sh.mu.Unlock()
			close(e.fl.done)
			c.mEntries.Inc()
		}
	}

	// Pass 3: wait on foreign executions (ours are already committed,
	// so an overlapping batch blocked on us is unblocked by now).
	for i := range entries {
		e := &entries[i]
		if e.state == cbWait {
			<-e.fl.done
			e.val = e.fl.val.hits
		}
	}

	for i, at := range dedup {
		out[i] = entries[at].val
	}
	sc.entries, sc.dedup = entries, dedup
	cacheBatchPool.Put(sc)
	return out
}
