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
		gotScores, errs := v.ScoresCtx(context.Background(), phrases, xs, cfg.Parallelism)
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
	scores, _ := v.ScoresCtx(context.Background(), phrases, xs, 1)
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
// (seed 1), recorded before the validation, extraction and probing
// stages were collapsed onto one call path each. Every backend runs
// behind a zero-fault adapter; outputs must not move.
var pinnedAcquisition = map[string][2]string{
	"airfare":    {"fa675e52c252b8cdbb3011fabedb468ae994d6cec7d595956369c08b60f34d4f", "cf78deb3e0895ab816e60ed4af961fd83cd4fd0ec395379b7269f0bca77efce2"},
	"auto":       {"5c137efc17184531c32d28c0252c5c8b542f5e44b837b127f676873ce8047b1a", "a496d516133d69468ade7b593ade27b1ae6cdeaf1aa63886bfe1201bf418943e"},
	"book":       {"3a46822326b3804c762c3f20849ba94380bc8890f36cd15d60e387d39236e398", "d81fcb16631f24ed8284821f834b0b6603272e0c41db9a2f5b36126c313fa713"},
	"job":        {"8323abfdd1f2fbde83b36e5fd0b93c77332b36b603ea8457d8d36d8374465e28", "abbeea599cba71dc6efd4c38a31002f5f8dc8819f0d7887c0d07d91d74dc9cca"},
	"realestate": {"551daa7257e633138c4679e13d56eb9a9cc890fc3637f9c379f9f326c2eaa780", "d2f983e3a9cf441c0c883a0fe3af5cd1cfca7e04761437bf24cae6be99c6d417"},
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
	"airfare":    {"224e1e725159a06d1833ed30150dec7ccde65d75419a5a7d31bbd6186501dc48", [5]int{80, 5259, 5339, 5259, 5259}},
	"auto":       {"066f338983334d577668cf71963d6952a59101bac7d43d550dbf3ff0fd7e2fa6", [5]int{72, 3046, 3118, 3046, 3046}},
	"book":       {"abe262598c323e62f295928c18af9e826d864c7a85244f6a7d1f20d99dbf5be8", [5]int{236, 1970, 2206, 1970, 1970}},
	"job":        {"358403401235a90d010c71e8560e6651eebd18d53b6edfddac264cb24c6632b6", [5]int{160, 2111, 2271, 2111, 2111}},
	"realestate": {"f69e0d65c49c4e58a90e5f9f7941548d4c95e529a2d2d18e3722344737c06ac3", [5]int{128, 2967, 3095, 2967, 2967}},
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
