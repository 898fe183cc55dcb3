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
// (seed 1). The Report digests were last re-recorded when Surface's
// extraction searches and Attr-Deep's probes began asking each distinct
// query once per run, which lowered the Report's Surface and Attr-Deep
// charges; the ledger digests did not move. Every backend runs behind a
// zero-fault adapter; outputs must not move.
var pinnedAcquisition = map[string][2]string{
	"airfare":    {"ff3ba38d4263a9824711ea963fc86cb23a45c7706e1f135f37ccf1c9135d2dd7", "046e3e3f15e5a60047abd44134ea6bfee785689071f26217d91cac36ee27314a"},
	"auto":       {"1785c16bfd6cebef9d732166a7cce88bc91f989ddd868bcb7d4a4c8a362a9597", "dc2419f8ef248ad0d845556c8819f6ee2743ff99df5cb799f24e35ea8694c394"},
	"book":       {"429eafc58a70333170440ac513726bea59cb6130b260b73b2b9a4deee0f2bc12", "72dfe6cdbb8773c554f80acfac41f1d90670aa074f65c197c6f8548261f62377"},
	"job":        {"b4211d4e8c20a310e1088a77b4304299e805ebabd51c575c564f9c3bdb71ba65", "c4296d949e2e6ab81e0c80cf9bb1dadfb1bbe22ca8b92b32dae4f7d69c444f04"},
	"realestate": {"6d84063241bd6bef29e4cd0fda28952c4fafadc08a187718cbe6af3f77b1b47f", "0afb6d4a6a603c51d01d0c44c1824d45bf3e60c2a12d16c3ee9b5273d5095ad0"},
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
// Hits are 0 and raw queries equal misses: every repeated query is
// answered by the component memos above the cache (the validator's hit
// counts, Surface's extraction searches) and never reaches it.
var pinnedCachedAcquisition = map[string]struct {
	report string
	acct   [5]int
}{
	"airfare":    {"483127187188d8b6cfa38456da4a41b74908efb0126daf2054a2268c38804e55", [5]int{0, 5044, 5044, 5044, 5044}},
	"auto":       {"a6f2dfcca35ec455b301f134359857806c93500e729780fc27fa813198062dc3", [5]int{0, 2846, 2846, 2846, 2846}},
	"book":       {"2f3bf4b3f71d332a180aed8ea6357f4c8e772b033b93cd306ba70030f24827bb", [5]int{0, 1888, 1888, 1888, 1888}},
	"job":        {"3e820fe04635e18d5f553197ae92209e44935eeebb8e0d41a49affee7a21992c", [5]int{0, 2067, 2067, 2067, 2067}},
	"realestate": {"7286c08f928881d9838c44aa5d89d5eb872f055cd24640e4279f730e2b369f04", [5]int{0, 2795, 2795, 2795, 2795}},
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

// TestWarmCacheReuse acquires the five paper domains twice through one
// CachedEngine, as a warm re-acquisition and the experiments' shared
// cache do. The second pass must be answered entirely by the cache —
// no miss, no engine query, no Surface or Attr-Surface charge — and
// must reproduce the first pass's outcomes, acquired instances and
// ledger NDJSON byte for byte.
func TestWarmCacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	eng := surfaceweb.NewEngine()
	surfaceweb.BuildCorpus(eng, kb.Domains(), surfaceweb.DefaultCorpusConfig())
	cache := surfaceweb.NewCachedEngine(eng, 0)
	type pass struct {
		outcomes, instances, ledger []byte
		rep                         *Report
	}
	run := func(dom *kb.Domain) pass {
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
		acq := NewPipeline(cache, pool, DefaultConfig(), AllComponents())
		var ledger bytes.Buffer
		acq.SetLedger(obs.NewLedger(&ledger))
		rep := acq.AcquireAllCtx(context.Background(), ds)
		outcomes, err := json.Marshal(rep.Outcomes)
		if err != nil {
			t.Fatal(err)
		}
		var instances bytes.Buffer
		if err := ds.WriteJSON(&instances); err != nil {
			t.Fatal(err)
		}
		return pass{outcomes, instances.Bytes(), ledger.Bytes(), rep}
	}
	first := map[string]pass{}
	for _, dom := range kb.Domains() {
		first[dom.Key] = run(dom)
	}
	misses, queries := cache.Misses(), eng.QueryCount()
	for _, dom := range kb.Domains() {
		got, want := run(dom), first[dom.Key]
		if !bytes.Equal(got.outcomes, want.outcomes) {
			t.Errorf("%s: warm outcomes differ from the cold pass's", dom.Key)
		}
		if !bytes.Equal(got.instances, want.instances) {
			t.Errorf("%s: warm acquired instances differ from the cold pass's", dom.Key)
		}
		if !bytes.Equal(got.ledger, want.ledger) {
			t.Errorf("%s: warm ledger NDJSON differs from the cold pass's", dom.Key)
		}
		if r := got.rep; r.SurfaceQueries != 0 || r.SurfaceTime != 0 || r.AttrSurfaceQueries != 0 || r.AttrSurfaceTime != 0 {
			t.Errorf("%s: warm pass charged Surface %d queries (%v), Attr-Surface %d (%v); want 0",
				dom.Key, r.SurfaceQueries, r.SurfaceTime, r.AttrSurfaceQueries, r.AttrSurfaceTime)
		}
		if want.rep.SurfaceQueries == 0 || want.rep.AttrSurfaceQueries == 0 {
			t.Errorf("%s: cold pass charged no Surface or Attr-Surface query; the warm check is vacuous", dom.Key)
		}
	}
	if d := cache.Misses() - misses; d != 0 {
		t.Errorf("warm pass missed the cache %d times, want 0", d)
	}
	if d := eng.QueryCount() - queries; d != 0 {
		t.Errorf("warm pass sent %d queries to the engine, want 0", d)
	}
	if cache.Hits() == 0 {
		t.Error("warm pass answered nothing from the cache")
	}
}
