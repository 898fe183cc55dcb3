package webiq

import (
	"context"
	"strings"
	"sync"

	"webiq/internal/nlp"
	"webiq/internal/resilience"
)

// Validator scores the semantic connection between an attribute label
// and an instance candidate from their co-occurrence statistics on the
// Surface Web, per Section 2.2: validation queries are formed from
// validation patterns, and co-occurrence is measured with pointwise
// mutual information to avoid popularity bias.
//
// Hit counts are memoized so that repeated sub-queries (NumHits(V),
// NumHits(x)) are charged to the search engine only once, mirroring how
// a careful client would cache Google hit counts. The memo is
// singleflight: when parallel validation workers miss on the same query
// simultaneously, one goroutine queries the engine and the rest wait,
// so the engine is charged exactly as often as in a sequential run.
type Validator struct {
	engine SearchEngine
	cfg    Config

	// fallible, when set, replaces engine for hit counting with an
	// error-aware backend (fault injection / resilient client). nil
	// keeps the infallible path byte-identical.
	fallible resilience.FallibleEngine

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
	return &Validator{engine: engine, cfg: cfg,
		cache: map[string]int{}, inflight: map[string]*hitsCall{}}
}

// SetFallible installs an error-aware engine for hit counting; nil
// restores the infallible pass-through.
func (v *Validator) SetFallible(e resilience.FallibleEngine) { v.fallible = e }

// numHits is the caching, singleflight hit counter.
func (v *Validator) numHits(query string) int {
	n, _ := v.numHitsKeyCtx(context.Background(), []byte(query))
	return n
}

// numHitsKey is numHits keyed by a byte buffer: the cache probe is
// zero-copy, and the query string is materialized only on a miss —
// where it doubles as the memo key and the raw engine query, keeping
// the engine's deterministic per-query latency identical to the
// string path.
func (v *Validator) numHitsKey(key []byte) int {
	n, _ := v.numHitsKeyCtx(context.Background(), key)
	return n
}

// numHitsKeyCtx is the error-aware core of the memo. Failed queries are
// never cached — a later retry of the same query hits the backend again
// — but concurrent waiters on the same in-flight call do share the
// failure (and may bail out early on their own context).
func (v *Validator) numHitsKeyCtx(ctx context.Context, key []byte) (int, error) {
	v.mu.Lock()
	if n, ok := v.cache[string(key)]; ok {
		v.mu.Unlock()
		return n, nil
	}
	if c, ok := v.inflight[string(key)]; ok {
		v.mu.Unlock()
		select {
		case <-c.done:
			return c.n, c.err
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	query := string(key)
	c := &hitsCall{done: make(chan struct{})}
	v.inflight[query] = c
	v.mu.Unlock()

	if v.fallible != nil {
		c.n, c.err = v.fallible.NumHits(ctx, query)
	} else {
		c.n = v.engine.NumHits(query)
	}

	v.mu.Lock()
	if c.err == nil {
		v.cache[query] = c.n
	}
	delete(v.inflight, query)
	v.mu.Unlock()
	close(c.done)
	return c.n, c.err
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

// PMI computes the paper's adapted pointwise mutual information between
// a validation phrase V and a candidate x:
//
//	PMI(V, x) = NumHits(V + x) / (NumHits(V) · NumHits(x))
//
// With Config.UseRawHitCounts (ablation), it returns NumHits(V + x)
// directly, exhibiting the popularity bias PMI corrects.
func (v *Validator) PMI(phrase, x string) float64 {
	val, _ := v.PMICtx(context.Background(), phrase, x)
	return val
}

// PMICtx is PMI with error propagation from a fallible engine: when a
// hit-count query fails terminally the score is unusable and the error
// is returned for the caller's degradation policy. With no fallible
// engine installed it never errors and is byte-identical to PMI.
func (v *Validator) PMICtx(ctx context.Context, phrase, x string) (float64, error) {
	// Build the three query keys in one pooled buffer; each is
	// byte-identical to the string concatenation it replaces, so hit
	// counts and simulated latencies are unchanged.
	bp := foldBuf()
	buf := (*bp)[:0]
	buf = append(buf, '"')
	buf = append(buf, phrase...)
	buf = append(buf, ' ')
	buf = nlp.AppendLower(buf, x)
	buf = append(buf, '"')
	joint, err := v.numHitsKeyCtx(ctx, buf)

	ret := func(val float64, err error) (float64, error) {
		*bp = buf
		putFoldBuf(bp)
		return val, err
	}
	if err != nil {
		return ret(0, err)
	}
	if v.cfg.UseRawHitCounts {
		return ret(float64(joint), nil)
	}
	if joint == 0 {
		return ret(0, nil)
	}
	buf = append(buf[:0], '"')
	buf = append(buf, phrase...)
	buf = append(buf, '"')
	hv, err := v.numHitsKeyCtx(ctx, buf)
	if err != nil {
		return ret(0, err)
	}
	buf = append(buf[:0], '"')
	buf = nlp.AppendLower(buf, x)
	buf = append(buf, '"')
	hx, err := v.numHitsKeyCtx(ctx, buf)
	if err != nil {
		return ret(0, err)
	}
	if hv == 0 || hx == 0 {
		return ret(0, nil)
	}
	return ret(float64(joint)/(float64(hv)*float64(hx)), nil)
}

// Scores returns the per-phrase validation scores of candidate x for
// the given phrases — the validation vector M of Section 3.1.
func (v *Validator) Scores(phrases []string, x string) []float64 {
	out := make([]float64, len(phrases))
	for i, p := range phrases {
		out[i] = v.PMI(p, x)
	}
	return out
}

// ScoresCtx is Scores with error propagation: it fails on the first
// phrase whose hit counts are unavailable, since a partially scored
// vector cannot feed the classifier.
func (v *Validator) ScoresCtx(ctx context.Context, phrases []string, x string) ([]float64, error) {
	out := make([]float64, len(phrases))
	for i, p := range phrases {
		var err error
		if out[i], err = v.PMICtx(ctx, p, x); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Confidence is the confidence score of x being an instance of the
// attribute with the given validation phrases: the average PMI across
// phrases.
func (v *Validator) Confidence(phrases []string, x string) float64 {
	c, _ := v.ConfidenceCtx(context.Background(), phrases, x)
	return c
}

// ConfidenceCtx is Confidence with error propagation: it fails on the
// first phrase whose hit counts are unavailable. It delegates to
// ScoresCtx — the single scoring path, scalar or batched, that every
// confidence computation goes through.
func (v *Validator) ConfidenceCtx(ctx context.Context, phrases []string, x string) (float64, error) {
	if len(phrases) == 0 {
		return 0, nil
	}
	scores, err := v.ScoresCtx(ctx, phrases, x)
	if err != nil {
		return 0, err
	}
	return mean(scores), nil
}

// mean averages a non-empty score vector.
func mean(scores []float64) float64 {
	var sum float64
	for _, s := range scores {
		sum += s
	}
	return sum / float64(len(scores))
}
