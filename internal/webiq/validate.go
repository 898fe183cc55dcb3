package webiq

import (
	"context"
	"strings"
	"sync"

	"webiq/internal/nlp"
	"webiq/internal/resilience"
)

// Validator scores the semantic connection between an attribute label
// and instance candidates from their co-occurrence statistics on the
// Surface Web, per Section 2.2: validation queries are formed from
// validation patterns, and co-occurrence is measured with the paper's
// adapted pointwise mutual information to avoid popularity bias:
//
//	PMI(V, x) = NumHits(V + x) / (NumHits(V) · NumHits(x))
//
// With Config.UseRawHitCounts (ablation) a score is NumHits(V + x)
// directly, exhibiting the popularity bias PMI corrects.
//
// One attribute's validation burst scores every candidate x against
// every validation phrase V. ScoresBatchCtx collects the whole burst,
// dedupes it against the memoized hit-count cache, asks the engine for
// each key of the residue in turn, and fans the results back out. Hit
// counts are memoized so that repeated sub-queries (NumHits(V),
// NumHits(x)) are charged to the search engine only once, mirroring how
// a careful client would cache Google hit counts. The memo is
// singleflight: when parallel workers miss on the same query
// simultaneously, one goroutine queries the engine and the rest wait,
// so the engine is charged exactly as often as in a sequential run.
type Validator struct {
	// engine answers the hit-count queries: the zero-fault adapter over
	// the constructor's engine, or the error-aware client SetFallible
	// installs.
	engine resilience.FallibleEngine
	// adapter is the zero-fault adapter SetFallible(nil) restores.
	adapter resilience.FallibleEngine
	cfg     Config

	mu       sync.Mutex
	cache    map[string]int
	inflight map[string]*hitsCall
}

// hitsCall is an in-progress engine query other workers wait on.
type hitsCall struct {
	done chan struct{}
	n    int
	err  error
}

// NewValidator returns a Validator over the given engine.
func NewValidator(engine SearchEngine, cfg Config) *Validator {
	a := resilience.AdaptEngine(engine)
	return &Validator{engine: a, adapter: a, cfg: cfg,
		cache: map[string]int{}, inflight: map[string]*hitsCall{}}
}

// SetFallible installs an error-aware engine for hit counting; nil
// restores the zero-fault adapter over the constructor's engine.
func (v *Validator) SetFallible(e resilience.FallibleEngine) {
	if e == nil {
		e = v.adapter
	}
	v.engine = e
}

// Phrases returns the validation phrases for an attribute label: the
// proximity-based phrase (the label itself) and the cue-phrase-based
// phrases built from the label's noun phrase ("makes such as",
// "such makes as").
func (v *Validator) Phrases(label string) []string {
	var out []string
	lw := strings.Join(nlp.Words(label), " ")
	if lw != "" {
		out = append(out, lw)
	}
	ls := nlp.AnalyzeLabel(label)
	if len(ls.NPs) > 0 {
		plural := ls.NPs[0].Plural()
		out = append(out, plural+" such as", "such "+plural+" as")
	}
	return out
}

// mean averages a non-empty score vector.
func mean(scores []float64) float64 {
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(scores))
}

// ConfidenceBatchCtx returns the confidence score of each candidate in
// xs — the average PMI across phrases of its ScoresBatchCtx vector —
// with errs[i] set when xs[i] could not be scored.
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

// ScoresBatchCtx returns the per-phrase validation score vectors of many
// candidates at once — out[i] is the validation vector M of Section 3.1
// for xs[i] — resolving the whole burst through the memo in two
// stages: the joints, then the denominators they need.
//
// Probe order is the per-candidate scalar order (x-major, phrase-minor;
// the joint first, then NumHits(V) and NumHits(x) only when the joint
// is non-zero), so the set of queries that reach the engine — first
// need of each distinct key — is exactly the set a one-pair-at-a-time
// loop would issue. A hit-count query that fails terminally fails only
// the candidates needing it: errs[i] is the first failed key of xs[i]
// in that order, out[i] is then nil, and the other candidates still
// score. Failures are never cached.
func (v *Validator) ScoresBatchCtx(ctx context.Context, phrases []string, xs []string) ([][]float64, []error) {
	out := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	if len(xs) == 0 || len(phrases) == 0 {
		for i := range out {
			out[i] = make([]float64, len(phrases))
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
	sc.joints, sc.jointErrs = growInts(sc.joints, keys.n), growErrs(sc.jointErrs, keys.n)
	joints, jointErrs := sc.joints, sc.jointErrs
	v.numHitsManyCtx(ctx, keys, joints, jointErrs, sc)

	// Stage 2: NumHits(V) and NumHits(x) for the answered non-zero
	// joints, again in scalar probe order. hvAt/hxAt map each needed
	// (i,j) pair to its position in the stage-2 key list; -1 means the
	// joint was zero or failed and the scalar path would not have asked.
	keys.reset()
	sc.hvAt = growInts(sc.hvAt, len(xs)*np)
	sc.hxAt = growInts(sc.hxAt, len(xs)*np)
	hvAt, hxAt := sc.hvAt, sc.hxAt
	for i, x := range xs {
		for j, p := range phrases {
			at := i*np + j
			hvAt[at], hxAt[at] = -1, -1
			if v.cfg.UseRawHitCounts || jointErrs[at] != nil || joints[at] == 0 {
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
	sc.singles, sc.singleErrs = growInts(sc.singles, keys.n), growErrs(sc.singleErrs, keys.n)
	singles, singleErrs := sc.singles, sc.singleErrs
	v.numHitsManyCtx(ctx, keys, singles, singleErrs, sc)

	for i := range xs {
		s := flat[i*np : (i+1)*np : (i+1)*np]
		for j := range phrases {
			at := i*np + j
			if errs[i] = jointErrs[at]; errs[i] != nil {
				break
			}
			joint := joints[at]
			if v.cfg.UseRawHitCounts {
				s[j] = float64(joint)
				continue
			}
			if joint == 0 {
				continue
			}
			if errs[i] = singleErrs[hvAt[at]]; errs[i] != nil {
				break
			}
			if errs[i] = singleErrs[hxAt[at]]; errs[i] != nil {
				break
			}
			hv, hx := singles[hvAt[at]], singles[hxAt[at]]
			if hv == 0 || hx == 0 {
				continue
			}
			s[j] = float64(joint) / (float64(hv) * float64(hx))
		}
		if errs[i] == nil {
			out[i] = s
		}
	}
	return out, errs
}

// scoresBatchScratch pools the working set of one batched burst: the
// key arena, the stage-2 position maps, the two hit-count result and
// error slices, and numHitsManyCtx's miss-tracking slices. Steady-state
// bursts allocate only the returned score vectors.
type scoresBatchScratch struct {
	keys                  batchKeyArena
	hvAt, hxAt            []int
	joints, singles       []int
	jointErrs, singleErrs []error
	waits, mine           []hitsRef
	mineQueries           []string
}

var scoresBatchPool = sync.Pool{New: func() any { return new(scoresBatchScratch) }}

// growInts returns s resized to length n, reusing its capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growErrs returns s resized to length n, reusing its capacity.
func growErrs(s []error, n int) []error {
	if cap(s) < n {
		return make([]error, n)
	}
	return s[:n]
}

// scoresBatchChunkedCtx scores xs into per-index slots of scores/errs,
// splitting the list into contiguous chunks — one ScoresBatchCtx call
// per chunk — spread over the validator's worker pool. Chunks only
// partition the work: the memo's singleflight keeps every distinct
// query issued exactly once regardless of which chunk needs it first,
// so results and engine accounting match the unchunked batch. Slots of
// chunks never scored (cancellation) stay nil, as with parallelForCtx.
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

// numHitsManyCtx resolves many memo keys at once into out[:keys.n] and
// errs[:keys.n], writing every slot. Keys already cached are served
// from the memo; keys in flight from other goroutines are waited on
// (after our own work, so overlapping batches cannot deadlock); the
// rest are registered as in-flight by this call and asked one query at
// a time, then committed and released. Duplicate keys within the call
// resolve to one engine query. A failed key is never cached: a later
// need of it asks the engine again, while the waiters on this call
// share the failure.
func (v *Validator) numHitsManyCtx(ctx context.Context, keys *batchKeyArena, out []int, errs []error, sc *scoresBatchScratch) {
	if keys.n == 0 {
		return
	}
	waits := sc.waits[:0]
	mine := sc.mine[:0]
	mineQueries := sc.mineQueries[:0]

	v.mu.Lock()
	for i := 0; i < keys.n; i++ {
		k := keys.key(i)
		if n, ok := v.cache[string(k)]; ok {
			out[i], errs[i] = n, nil
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

	if len(mine) > 0 {
		for i, m := range mine {
			m.c.n, m.c.err = v.engine.NumHits(ctx, mineQueries[i])
		}
		v.mu.Lock()
		for i, m := range mine {
			if m.c.err == nil {
				v.cache[mineQueries[i]] = m.c.n
			}
			delete(v.inflight, mineQueries[i])
			out[m.idx], errs[m.idx] = m.c.n, m.c.err
		}
		v.mu.Unlock()
		for _, m := range mine {
			close(m.c.done)
		}
	}

	for _, w := range waits {
		select {
		case <-w.c.done:
			out[w.idx], errs[w.idx] = w.c.n, w.c.err
		case <-ctx.Done():
			out[w.idx], errs[w.idx] = 0, ctx.Err()
		}
	}
}
