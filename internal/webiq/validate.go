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
// ScoresCtx scores each candidate x against every validation phrase V,
// one candidate at a time per worker, asking each hit count through a
// memo. Hit counts are memoized so that repeated sub-queries
// (NumHits(V), NumHits(x)) are charged to the search engine only once,
// mirroring how a careful client would cache Google hit counts. The
// memo is singleflight per key: when parallel workers miss on the same
// query simultaneously, one goroutine queries the engine and the rest
// wait, so the engine is charged exactly as often as in a sequential
// run.
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

// hitsCall is an in-progress engine query other workers wait on. The
// first waiter makes done (under Validator.mu), so a miss nobody waits
// on allocates no channel.
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

// ConfidenceCtx returns the confidence score of each candidate in xs —
// the average PMI across phrases of its ScoresCtx vector — scoring the
// candidates serially, with errs[i] set when xs[i] could not be scored.
func (v *Validator) ConfidenceCtx(ctx context.Context, phrases []string, xs []string) (confs []float64, errs []error) {
	confs = make([]float64, len(xs))
	if len(phrases) == 0 {
		return confs, make([]error, len(xs))
	}
	scores, errs := v.ScoresCtx(ctx, phrases, xs, 1)
	for i := range xs {
		if errs[i] == nil {
			confs[i] = mean(scores[i])
		}
	}
	return confs, errs
}

// ScoresCtx returns the per-phrase validation score vectors of xs —
// out[i] is the validation vector M of Section 3.1 for xs[i] — scoring
// the candidates on up to workers goroutines. Each candidate is scored
// in the scalar probe order (see scores), and the memo issues each
// distinct key to the engine once, so without faults the engine sees
// the same set of queries for any worker count. A candidate whose hit
// counts cannot all be answered fails alone: errs[i] is the first
// failed key's error (or the context's error when cancellation stopped
// the pool before xs[i] was scored) and out[i] is nil; the other
// candidates still score.
func (v *Validator) ScoresCtx(ctx context.Context, phrases []string, xs []string, workers int) ([][]float64, []error) {
	out := make([][]float64, len(xs))
	errs := make([]error, len(xs))
	// One flat backing array for all score vectors: out[i] is its own
	// full-capacity window, so the call allocates once instead of once
	// per candidate.
	np := len(phrases)
	flat := make([]float64, len(xs)*np)
	parallelForCtx(ctx, len(xs), workers, func(i int) {
		s := flat[i*np : (i+1)*np : (i+1)*np]
		if errs[i] = v.scores(ctx, phrases, xs[i], s); errs[i] == nil {
			out[i] = s
		}
	})
	for i := range out {
		if out[i] == nil && errs[i] == nil {
			errs[i] = ctx.Err()
		}
	}
	return out, errs
}

// scores fills s with x's score on each phrase in the scalar probe
// order: the joint NumHits(V + x) first, then NumHits(V) and NumHits(x)
// only when the joint is non-zero and PMI (not raw counts) is scored.
// It stops at, and returns, the first failed key's error.
func (v *Validator) scores(ctx context.Context, phrases []string, x string, s []float64) error {
	// Keys are built in stack buffers; the memo copies one into a
	// string only on a miss.
	var kb, lb [128]byte
	lx := nlp.AppendLower(lb[:0], x)
	for j, p := range phrases {
		k := append(kb[:0], '"')
		k = append(k, p...)
		k = append(k, ' ')
		k = append(k, lx...)
		k = append(k, '"')
		joint, err := v.numHits(ctx, k)
		if err != nil {
			return err
		}
		if v.cfg.UseRawHitCounts {
			s[j] = float64(joint)
			continue
		}
		if joint == 0 {
			continue
		}
		k = append(append(append(kb[:0], '"'), p...), '"')
		hv, err := v.numHits(ctx, k)
		if err != nil {
			return err
		}
		k = append(append(append(kb[:0], '"'), lx...), '"')
		hx, err := v.numHits(ctx, k)
		if err != nil {
			return err
		}
		if hv == 0 || hx == 0 {
			continue
		}
		s[j] = float64(joint) / (float64(hv) * float64(hx))
	}
	return nil
}

// numHits returns the hit count of one memo key. A cached count is
// returned directly; a key another goroutine is already asking is
// waited on (or abandoned when ctx ends first); otherwise this call
// registers the key, asks the engine, caches the answer only if the
// query succeeded, and releases the waiters with its result. A failed
// key is never cached: a later need of it asks the engine again.
func (v *Validator) numHits(ctx context.Context, key []byte) (int, error) {
	v.mu.Lock()
	if n, ok := v.cache[string(key)]; ok {
		v.mu.Unlock()
		return n, nil
	}
	if c, ok := v.inflight[string(key)]; ok {
		if c.done == nil {
			c.done = make(chan struct{})
		}
		v.mu.Unlock()
		select {
		case <-c.done:
			return c.n, c.err
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	query := string(key)
	c := &hitsCall{}
	v.inflight[query] = c
	v.mu.Unlock()

	c.n, c.err = v.engine.NumHits(ctx, query)
	v.mu.Lock()
	if c.err == nil {
		v.cache[query] = c.n
	}
	delete(v.inflight, query)
	done := c.done
	v.mu.Unlock()
	if done != nil {
		close(done)
	}
	return c.n, c.err
}
