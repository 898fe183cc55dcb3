package webiq

import (
	"context"
	"sync"

	"webiq/internal/nlp"
)

// Batched PMI validation. One attribute's validation burst scores every
// candidate x against every validation phrase V — |xs|·|phrases| joint
// probes plus the phrase and candidate hit counts the non-zero joints
// need. ScoresBatchCtx collects the whole burst, dedupes it against the
// memoized hit-count cache, issues the residue as one batched engine
// request, and fans the results back out.
//
// The batch is observationally identical to the scalar loop:
//
//   - Probe order is the scalar order (x-major, phrase-minor; joint
//     first, then NumHits(V), then NumHits(x) only when the joint is
//     non-zero), so the set of queries that reach the engine — first
//     need of each distinct key — is exactly the scalar set.
//   - Resolution goes through the same singleflight memo; concurrent
//     scalar callers and other batches interoperate with it.
//   - Fault injection (a fallible engine) and Config.ScalarValidation
//     fall back to the per-x scalar loop, preserving the scalar path's
//     per-x short-circuit error semantics exactly.

// batchable reports whether the validator may resolve a burst through
// the batched path: no fault injection (whose per-attempt decisions are
// order-sensitive) and no forced-scalar configuration.
func (v *Validator) batchable() bool {
	return v.fallible == nil && !v.cfg.ScalarValidation
}

// ScoresBatch returns the per-phrase validation score vectors for many
// candidates at once: out[i] corresponds to xs[i] and equals
// Scores(phrases, xs[i]).
func (v *Validator) ScoresBatch(phrases []string, xs []string) [][]float64 {
	out, _ := v.ScoresBatchCtx(context.Background(), phrases, xs)
	return out
}

// ConfidenceBatch returns the confidence score of each candidate in
// xs: out[i] equals Confidence(phrases, xs[i]).
func (v *Validator) ConfidenceBatch(phrases []string, xs []string) []float64 {
	confs, _ := v.ConfidenceBatchCtx(context.Background(), phrases, xs)
	return confs
}

// ConfidenceBatchCtx returns the confidence score of each candidate in
// xs — confs[i] and errs[i] equal what ConfidenceCtx(ctx, phrases,
// xs[i]) returns — resolving the whole burst through one batched
// engine request where possible.
func (v *Validator) ConfidenceBatchCtx(ctx context.Context, phrases []string, xs []string) (confs []float64, errs []error) {
	confs = make([]float64, len(xs))
	if len(phrases) == 0 {
		return confs, make([]error, len(xs))
	}
	scores, errs := v.ScoresBatchCtx(ctx, phrases, xs)
	for i := range xs {
		if errs[i] == nil {
			confs[i] = mean(scores[i])
		}
	}
	return confs, errs
}

// ScoresBatchCtx is the batched core: out[i], errs[i] equal what
// ScoresCtx(ctx, phrases, xs[i]) returns when called sequentially.
func (v *Validator) ScoresBatchCtx(ctx context.Context, phrases []string, xs []string) ([][]float64, []error) {
	out := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	if len(xs) == 0 || len(phrases) == 0 {
		for i := range out {
			out[i] = make([]float64, len(phrases))
		}
		return out, errs
	}
	if v.fallible != nil || v.cfg.ScalarValidation {
		// Fault injection decides per (query, attempt); batching would
		// reorder attempts and change which probes fail. Keep the
		// scalar path so error behavior is bit-for-bit the same.
		for i, x := range xs {
			out[i], errs[i] = v.ScoresCtx(ctx, phrases, x)
		}
		return out, errs
	}

	np := len(phrases)
	sc := scoresBatchPool.Get().(*scoresBatchScratch)
	defer scoresBatchPool.Put(sc)
	keys := &sc.keys
	keys.reset()

	// One flat backing array for all score vectors: out[i] is its own
	// full-capacity window, so the batch allocates once instead of once
	// per candidate.
	flat := make([]float64, len(xs)*np)

	// Stage 1: every joint key "V x", in scalar probe order.
	for _, x := range xs {
		for _, p := range phrases {
			keys.begin()
			keys.arena = append(keys.arena, '"')
			keys.arena = append(keys.arena, p...)
			keys.arena = append(keys.arena, ' ')
			keys.arena = nlp.AppendLower(keys.arena, x)
			keys.arena = append(keys.arena, '"')
			keys.end()
		}
	}
	sc.joints = growInts(sc.joints, keys.n)
	joints := sc.joints
	if err := v.numHitsManyCtx(ctx, keys, joints, sc); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return out, errs
	}
	if v.cfg.UseRawHitCounts {
		for i := range xs {
			s := flat[i*np : (i+1)*np : (i+1)*np]
			for j := range phrases {
				s[j] = float64(joints[i*np+j])
			}
			out[i] = s
		}
		return out, errs
	}

	// Stage 2: NumHits(V) and NumHits(x) for the non-zero joints, again
	// in scalar probe order. hvAt/hxAt map each needed (i,j) pair to
	// its position in the stage-2 key list; -1 means the joint was zero
	// and the scalar path would not have asked.
	keys.reset()
	sc.hvAt = growInts(sc.hvAt, len(xs)*np)
	sc.hxAt = growInts(sc.hxAt, len(xs)*np)
	hvAt, hxAt := sc.hvAt, sc.hxAt
	for i, x := range xs {
		for j, p := range phrases {
			at := i*np + j
			hvAt[at], hxAt[at] = -1, -1
			if joints[at] == 0 {
				continue
			}
			hvAt[at] = keys.n
			keys.begin()
			keys.arena = append(keys.arena, '"')
			keys.arena = append(keys.arena, p...)
			keys.arena = append(keys.arena, '"')
			keys.end()
			hxAt[at] = keys.n
			keys.begin()
			keys.arena = append(keys.arena, '"')
			keys.arena = nlp.AppendLower(keys.arena, x)
			keys.arena = append(keys.arena, '"')
			keys.end()
		}
	}
	sc.singles = growInts(sc.singles, keys.n)
	singles := sc.singles
	if err := v.numHitsManyCtx(ctx, keys, singles, sc); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return out, errs
	}

	for i := range xs {
		s := flat[i*np : (i+1)*np : (i+1)*np]
		for j := range phrases {
			at := i*np + j
			joint := joints[at]
			if joint == 0 {
				continue
			}
			hv, hx := singles[hvAt[at]], singles[hxAt[at]]
			if hv == 0 || hx == 0 {
				continue
			}
			s[j] = float64(joint) / (float64(hv) * float64(hx))
		}
		out[i] = s
	}
	return out, errs
}

// scoresBatchScratch pools the working set of one batched burst: the
// key arena, the stage-2 position maps, the two hit-count result
// slices, and numHitsManyCtx's miss-tracking slices. Steady-state
// bursts allocate only the returned score vectors.
type scoresBatchScratch struct {
	keys        batchKeyArena
	hvAt, hxAt  []int
	joints      []int
	singles     []int
	waits, mine []hitsRef
	mineQueries []string
}

var scoresBatchPool = sync.Pool{New: func() any { return new(scoresBatchScratch) }}

// growInts returns s resized to length n, reusing its capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// scoresBatchChunkedCtx scores xs into per-index slots of scores/errs,
// splitting the list into contiguous chunks — one batched engine pass
// per chunk — spread over the validator's worker pool. Chunks only
// partition the work: the memo's singleflight keeps every distinct
// query issued exactly once regardless of which chunk needs it first,
// so results and engine accounting match the unchunked batch and the
// scalar loop alike. Slots of indices never scored (cancellation) stay
// nil, as with parallelForCtx.
func (v *Validator) scoresBatchChunkedCtx(ctx context.Context, phrases []string, xs []string, scores [][]float64, errs []error) {
	workers := clampWorkers(v.cfg.Parallelism)
	if workers < 1 {
		workers = 1
	}
	nchunks := workers
	if nchunks > len(xs) {
		nchunks = len(xs)
	}
	if nchunks <= 1 {
		s, e := v.ScoresBatchCtx(ctx, phrases, xs)
		copy(scores, s)
		copy(errs, e)
		return
	}
	parallelForCtx(ctx, nchunks, workers, func(c int) {
		lo, hi := c*len(xs)/nchunks, (c+1)*len(xs)/nchunks
		s, e := v.ScoresBatchCtx(ctx, phrases, xs[lo:hi])
		copy(scores[lo:hi], s)
		copy(errs[lo:hi], e)
	})
}

// batchKeyArena builds many query keys back to back in one growable
// buffer. Offsets survive arena growth, so keys are sliced out only
// after building finishes.
type batchKeyArena struct {
	arena []byte
	offs  []int
	n     int
}

func (b *batchKeyArena) begin() {
	if len(b.offs) == 0 {
		b.offs = append(b.offs, 0)
	}
}
func (b *batchKeyArena) end() {
	b.offs = append(b.offs, len(b.arena))
	b.n++
}
func (b *batchKeyArena) reset() { b.arena, b.offs, b.n = b.arena[:0], b.offs[:0], 0 }
func (b *batchKeyArena) key(i int) []byte {
	return b.arena[b.offs[i]:b.offs[i+1]]
}

// hitsRef ties one batch key position to the in-flight call resolving
// it.
type hitsRef struct {
	idx int // position in out
	c   *hitsCall
}

// numHitsManyCtx resolves many memo keys at once into out[:keys.n].
// Keys already cached are served from the memo; keys in flight from
// other goroutines are waited on (after our own work, so overlapping
// batches cannot deadlock); the rest are registered as in-flight by
// this call and executed — through the engine's batched entry point
// when it has one — then committed and released. Duplicate keys within
// the call resolve to one engine query, exactly as the scalar memo
// would.
func (v *Validator) numHitsManyCtx(ctx context.Context, keys *batchKeyArena, out []int, sc *scoresBatchScratch) error {
	if keys.n == 0 {
		return nil
	}
	waits := sc.waits[:0]
	mine := sc.mine[:0]
	mineQueries := sc.mineQueries[:0]

	v.mu.Lock()
	for i := 0; i < keys.n; i++ {
		k := keys.key(i)
		if n, ok := v.cache[string(k)]; ok {
			out[i] = n
			continue
		}
		if c, ok := v.inflight[string(k)]; ok {
			// Foreign call — or an earlier duplicate within this very
			// batch; either way the result arrives on c.done.
			waits = append(waits, hitsRef{idx: i, c: c})
			continue
		}
		query := string(k)
		c := &hitsCall{done: make(chan struct{})}
		v.inflight[query] = c
		mine = append(mine, hitsRef{idx: i, c: c})
		mineQueries = append(mineQueries, query)
	}
	v.mu.Unlock()
	sc.waits, sc.mine, sc.mineQueries = waits, mine, mineQueries

	// Execute our misses — one engine pass when the engine batches.
	if len(mine) > 0 {
		var counts []int
		if be, ok := v.engine.(BatchSearchEngine); ok {
			counts = be.NumHitsBatch(mineQueries)
		} else {
			counts = make([]int, len(mineQueries))
			for i, q := range mineQueries {
				counts[i] = v.engine.NumHits(q)
			}
		}
		v.mu.Lock()
		for i, m := range mine {
			m.c.n = counts[i]
			v.cache[mineQueries[i]] = counts[i]
			delete(v.inflight, mineQueries[i])
			out[m.idx] = counts[i]
		}
		v.mu.Unlock()
		for _, m := range mine {
			close(m.c.done)
		}
	}

	for _, w := range waits {
		select {
		case <-w.c.done:
			if w.c.err != nil {
				return w.c.err
			}
			out[w.idx] = w.c.n
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
