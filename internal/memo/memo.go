// Package memo is the one singleflight memo of the query path: a
// sharded map from key to answer in which concurrent asks of one
// missing key run the call once. The validator's per-pipeline PMI
// memo and the per-domain search-engine query cache are both built on
// it, so a repeated Web query is charged once however many workers ask
// it at the same time.
package memo

import (
	"context"
	"hash/maphash"
	"sync"
)

// Memo maps keys to answers, running each key's call at most once at a
// time and storing every successful answer. It is safe for concurrent
// use.
//
// Each key lives in one shard, chosen by hash, and a shard holds one
// map: an entry is an in-flight call until the call completes, and is
// then overwritten with the answer stored inline. A failed call is not
// stored — its entry is removed, so the next ask runs the call again —
// and its error reaches the callers that waited on it.
type Memo[V any] struct {
	seed   maphash.Seed
	shards []shard[V]
}

type shard[V any] struct {
	mu     sync.Mutex
	m      map[string]entry[V] // nil until the shard's first miss
	stored int                 // entries holding an answer
}

// entry is a stored answer (c == nil) or an in-flight call.
type entry[V any] struct {
	val V
	c   *call[V]
}

// call is an in-flight execution. The first waiter makes done (under
// the shard lock), so a miss nobody waits on allocates no channel.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty memo of n >= 1 shards.
func New[V any](n int) *Memo[V] {
	return &Memo[V]{seed: maphash.MakeSeed(), shards: make([]shard[V], n)}
}

// Do returns key's answer. A stored answer is returned at once. When
// another caller's call for key is in flight, Do waits for it and
// returns its answer or error, or ctx.Err() as soon as ctx ends first.
// Otherwise Do runs fn with key as a string — the only copy of the key
// Do makes — stores the answer if fn succeeded, and hands the result to
// the waiters. hit is false only for the caller that ran fn: waiting on
// another caller's call counts as a hit. fn must not panic.
func (m *Memo[V]) Do(ctx context.Context, key []byte, fn func(key string) (V, error)) (v V, hit bool, err error) {
	sh := &m.shards[0]
	if len(m.shards) > 1 {
		sh = &m.shards[maphash.Bytes(m.seed, key)%uint64(len(m.shards))]
	}
	sh.mu.Lock()
	if e, ok := sh.m[string(key)]; ok {
		if e.c == nil {
			sh.mu.Unlock()
			return e.val, true, nil
		}
		c := e.c
		if c.done == nil {
			c.done = make(chan struct{})
		}
		sh.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	k := string(key)
	c := &call[V]{}
	if sh.m == nil {
		sh.m = map[string]entry[V]{}
	}
	sh.m[k] = entry[V]{c: c}
	sh.mu.Unlock()

	v, err = fn(k)

	sh.mu.Lock()
	if err == nil {
		sh.m[k] = entry[V]{val: v}
		sh.stored++
	} else {
		delete(sh.m, k)
	}
	c.val, c.err = v, err
	done := c.done
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	return v, false, err
}

// Len returns the number of stored answers; calls in flight are not
// counted.
func (m *Memo[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.stored
		sh.mu.Unlock()
	}
	return n
}
