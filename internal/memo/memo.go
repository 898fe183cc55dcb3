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
// map from key to entry. A miss writes the map once: its entry is in
// flight until the call completes, and is then filled in place with
// the answer. A failed call is not stored — its entry is removed, so
// the next ask runs the call again — and its error reaches the callers
// that waited on it.
type Memo[V any] struct {
	seed   maphash.Seed
	shards []shard[V]
}

type shard[V any] struct {
	mu     sync.Mutex
	m      map[string]*entry[V] // nil until the shard's first miss
	stored int                  // entries holding an answer
}

// entry is one key's answer, or its call while pending. The first
// waiter makes done (under the shard lock), so a miss nobody waits on
// allocates no channel. The caller running the call fills val and err
// and clears pending under the shard lock, before closing done.
type entry[V any] struct {
	val     V
	err     error
	pending bool
	done    chan struct{}
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
		if !e.pending {
			v = e.val
			sh.mu.Unlock()
			return v, true, nil
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		sh.mu.Unlock()
		select {
		case <-done:
			return e.val, true, e.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	k := string(key)
	e := &entry[V]{pending: true}
	if sh.m == nil {
		sh.m = map[string]*entry[V]{}
	}
	sh.m[k] = e
	sh.mu.Unlock()

	v, err = fn(k)

	sh.mu.Lock()
	e.val, e.err, e.pending = v, err, false
	if err == nil {
		sh.stored++
	} else {
		delete(sh.m, k)
	}
	done := e.done
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
