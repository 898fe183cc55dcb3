package webiq

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/surfaceweb"
)

// recordingEngine passes calls through to an engine and logs every
// hit-count query that reaches it.
type recordingEngine struct {
	inner   *surfaceweb.Engine
	mu      sync.Mutex
	queries []string
}

func (r *recordingEngine) Search(q string, limit int) []surfaceweb.Snippet {
	return r.inner.Search(q, limit)
}

func (r *recordingEngine) NumHits(q string) int {
	r.mu.Lock()
	r.queries = append(r.queries, q)
	r.mu.Unlock()
	return r.inner.NumHits(q)
}

// log returns the logged queries in the order they reached the engine.
func (r *recordingEngine) log() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.queries...)
}

// multiset returns the logged queries sorted.
func (r *recordingEngine) multiset() []string {
	out := r.log()
	sort.Strings(out)
	return out
}

// TestScoresCtxMatchesScalar compares the scoring entry points against
// the scalar reference on fresh engines: values must match exactly,
// and at one worker the engine must see the reference's queries in the
// reference's order — every distinct query asked once, in scalar probe
// order, none the scalar loop would not ask.
func TestScoresCtxMatchesScalar(t *testing.T) {
	eng, _, _ := fixture(t)
	// Candidates with non-zero joints make the denominators reach the
	// engine; repeats replay from the memo.
	xs := []string{"Hemingway", "Ernest Hemingway", "updike", "Toni Morrison", "Toyota",
		"zzz-unknown", "Stephen King", "Hemingway", "Mark Twain", "software engineer", "Toni Morrison"}
	for _, raw := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseRawHitCounts = raw
		cfg.Parallelism = 1
		refEng, gotEng := &recordingEngine{inner: eng}, &recordingEngine{inner: eng}
		ref := newRefValidator(refEng, cfg)
		v := NewValidator(gotEng, cfg)
		phrases := v.Phrases("author")

		var wantScores [][]float64
		var wantConfs []float64
		for _, x := range xs {
			wantScores = append(wantScores, ref.scores(phrases, x))
			wantConfs = append(wantConfs, ref.confidence(phrases, x))
		}
		gotScores, errs := v.ScoresCtx(context.Background(), phrases, xs, cfg.Parallelism, nil)
		if !reflect.DeepEqual(gotScores, wantScores) || !reflect.DeepEqual(errs, make([]error, len(xs))) {
			t.Errorf("raw=%v: ScoresCtx %v (errs %v), scalar %v", raw, gotScores, errs, wantScores)
		}
		// Confidence on the same validator replays from the memo, as
		// the scalar sequence does.
		gotConfs, _ := v.ConfidenceCtx(context.Background(), phrases, xs)
		if !reflect.DeepEqual(gotConfs, wantConfs) {
			t.Errorf("raw=%v: ConfidenceCtx %v, scalar %v", raw, gotConfs, wantConfs)
		}
		if g, w := gotEng.log(), refEng.log(); !reflect.DeepEqual(g, w) {
			t.Errorf("raw=%v: engine query logs differ:\nvalidator: %q\nscalar:    %q", raw, g, w)
		}
		if w := refEng.log(); !raw && !slices.Contains(w, `"`+phrases[0]+`"`) {
			t.Errorf("no denominator reached the engine; the order check is vacuous: %q", w)
		}
	}
}

// TestConfidenceDelegatesToScores pins that ConfidenceCtx is the mean
// of the ScoresCtx vector, bit for bit.
func TestConfidenceDelegatesToScores(t *testing.T) {
	eng, _, _ := fixture(t)
	v := NewValidator(eng, DefaultConfig())
	phrases := v.Phrases("author")
	xs := []string{"Hemingway", "zzz"}
	scores, _ := v.ScoresCtx(context.Background(), phrases, xs, 1, nil)
	confs, _ := v.ConfidenceCtx(context.Background(), phrases, xs)
	for i, x := range xs {
		var sum float64
		for _, s := range scores[i] {
			sum += s
		}
		if got, want := confs[i], sum/float64(len(scores[i])); got != want {
			t.Errorf("confidence(%q) = %v, mean of scores = %v", x, got, want)
		}
	}
	if confs, _ := v.ConfidenceCtx(context.Background(), nil, []string{"x"}); confs[0] != 0 {
		t.Errorf("confidence with no phrases = %v, want 0", confs[0])
	}
}

// ledgeredRun does a full sequential acquisition of one domain at
// seed 1 with a decision ledger, for byte-level comparison of the
// Report and the provenance stream.
func ledgeredRun(t *testing.T, domain string) (*Report, []byte) {
	t.Helper()
	const seed = 1
	eng := surfaceweb.NewEngine()
	corpusCfg := surfaceweb.DefaultCorpusConfig()
	corpusCfg.Seed = seed
	surfaceweb.BuildCorpus(eng, kb.Domains(), corpusCfg)

	dom := kb.DomainByKey(domain)
	dataCfg := dataset.DefaultConfig()
	dataCfg.Seed = seed
	ds := dataset.Generate(dom, dataCfg)
	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = seed
	pool := deepweb.BuildPool(ds, dom, deepCfg)

	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	acq := NewAcquirer(NewSurface(eng, v, cfg), NewAttrDeep(pool, cfg),
		NewAttrSurface(v, cfg), AllComponents(), cfg)
	acq.SetAccounting(
		func() (time.Duration, int) { return eng.VirtualTime(), eng.QueryCount() },
		func() (time.Duration, int) { return pool.VirtualTime(), pool.QueryCount() },
	)
	var buf bytes.Buffer
	acq.SetLedger(obs.NewLedger(&buf))
	return acq.AcquireAllCtx(context.Background(), ds), buf.Bytes()
}

// pinnedAcquisition holds SHA-256 digests of the fault-free Report JSON
// and ledger NDJSON of a sequential acquisition of each paper domain
// (seed 1). They were last re-recorded when Attr-Deep and Attr-Surface
// began stopping once a verdict is fixed, which moved the Report's
// per-component charges and the ledger's attr-deep and attr-surface
// records. Every backend runs behind a zero-fault adapter; outputs must
// not move.
var pinnedAcquisition = map[string][2]string{
	"airfare":    {"2fc4cbb075694b80ec3d49cf115f7b832a4adca7d3e185e9fd25def8ee0630a9", "046e3e3f15e5a60047abd44134ea6bfee785689071f26217d91cac36ee27314a"},
	"auto":       {"a48fec6f9b11f72c4b2da57374439af18bfb52b9816ac5320afb4e8e6652c203", "dc2419f8ef248ad0d845556c8819f6ee2743ff99df5cb799f24e35ea8694c394"},
	"book":       {"7e897c25b41bfdfa37047c4777a6ae2b82df5b6c7cabfe52d71c95ace95cd15d", "72dfe6cdbb8773c554f80acfac41f1d90670aa074f65c197c6f8548261f62377"},
	"job":        {"ac2885bcdee9ed5853bd0e2e3078c837b4e380f0771ccda4d0b2d2a7ccecb6de", "c4296d949e2e6ab81e0c80cf9bb1dadfb1bbe22ca8b92b32dae4f7d69c444f04"},
	"realestate": {"a0409c3a83b42441c37ce38a6db960f975b1b0693a61dd2de32d83f8bd3f2b0c", "0afb6d4a6a603c51d01d0c44c1824d45bf3e60c2a12d16c3ee9b5273d5095ad0"},
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestBatchedAcquisitionByteIdentical is the end-to-end equivalence
// gate: a full sequential acquisition of each paper domain must
// reproduce the pinned Report JSON and ledger NDJSON byte for byte.
func TestBatchedAcquisitionByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	for _, dom := range kb.Domains() {
		rep, ledger := ledgeredRun(t, dom.Key)
		j, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]string{sha(j), sha(ledger)}
		if want := pinnedAcquisition[dom.Key]; got != want {
			t.Errorf("%s: (report, ledger) digests %q, pinned %q", dom.Key, got, want)
		}
	}
}

// pinnedCachedAcquisition holds, per paper domain, the SHA-256 of the
// Report JSON of an 8-worker acquisition through a CachedEngine (the
// benchmark's configuration) and the cache's accounting: hits, misses,
// raw queries, deduplicated queries charged to the engine, entries.
var pinnedCachedAcquisition = map[string]struct {
	report string
	acct   [5]int
}{
	"airfare":    {"049a966ca62102d88145ce0ac2760ef58e0aaa7a2445d465d57775fc539c2e9e", [5]int{80, 5044, 5124, 5044, 5044}},
	"auto":       {"5931b3a8ed980f6470496259c155e1f756815f18287f32326f9ca18c1d31f2df", [5]int{72, 2846, 2918, 2846, 2846}},
	"book":       {"23d3431fd4761c64183e7cb88c1d763c2f436d6cab6e582727dbb29f508048d7", [5]int{236, 1888, 2124, 1888, 1888}},
	"job":        {"f38e614baef2107e16dac6a7429f147183e4ffc8b811f71fef7132a76f83d955", [5]int{160, 2067, 2227, 2067, 2067}},
	"realestate": {"354e332be9974433d057dc3ab01f1194f6fc823ab9c18729e70dba894cf3e05f", [5]int{128, 2795, 2923, 2795, 2795}},
}

// TestBatchedCachedAcquisitionAccounting runs the worker-pool
// acquisition over a CachedEngine and demands the pinned Report and
// cache accounting: scoring asks the cache one hit count at a time
// through the zero-fault adapter, and the engine is charged what the
// pins record.
func TestBatchedCachedAcquisitionAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	eng := surfaceweb.NewEngine()
	surfaceweb.BuildCorpus(eng, kb.Domains(), surfaceweb.DefaultCorpusConfig())
	for _, dom := range kb.Domains() {
		cfg := DefaultConfig()
		cfg.Parallelism = 8
		cache := surfaceweb.NewCachedEngine(eng, 0)
		q0 := cache.QueryCount()
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
		rep := NewPipeline(cache, pool, cfg, AllComponents()).AcquireAllCtx(context.Background(), ds)
		j, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		acct := [5]int{cache.Hits(), cache.Misses(), cache.RawQueryCount(), cache.QueryCount() - q0, cache.Len()}
		if want := pinnedCachedAcquisition[dom.Key]; sha(j) != want.report || acct != want.acct {
			t.Errorf("%s: report digest %q, accounting %v; pinned %q, %v", dom.Key, sha(j), acct, want.report, want.acct)
		}
	}
}
