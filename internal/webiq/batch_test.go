package webiq

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/surfaceweb"
)

// TestScoresBatchMatchesScalar compares the batched scoring entry
// points against fresh scalar validators on twin engines: values must
// match exactly and the engines must be charged identically.
func TestScoresBatchMatchesScalar(t *testing.T) {
	xs := []string{"Hemingway", "updike", "Toyota", "zzz-unknown", "Hemingway", "software engineer"}
	for _, raw := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseRawHitCounts = raw

		scalarCfg := cfg
		scalarCfg.ScalarValidation = true
		mkEngine := func() *surfaceweb.Engine {
			e := surfaceweb.NewEngine()
			surfaceweb.BuildCorpus(e, kb.Domains(), surfaceweb.DefaultCorpusConfig())
			return e
		}
		scalarEng, batchEng := mkEngine(), mkEngine()
		scalar := NewValidator(scalarEng, scalarCfg)
		batched := NewValidator(batchEng, cfg)
		phrases := scalar.Phrases("author")

		var wantScores [][]float64
		var wantConfs []float64
		for _, x := range xs {
			wantScores = append(wantScores, scalar.Scores(phrases, x))
			wantConfs = append(wantConfs, scalar.Confidence(phrases, x))
		}
		gotScores := batched.ScoresBatch(phrases, xs)
		if !reflect.DeepEqual(gotScores, wantScores) {
			t.Errorf("raw=%v: ScoresBatch %v, scalar %v", raw, gotScores, wantScores)
		}
		// Confidence on the same validator replays from the memo, as
		// the scalar sequence does.
		gotConfs := batched.ConfidenceBatch(phrases, xs)
		if !reflect.DeepEqual(gotConfs, wantConfs) {
			t.Errorf("raw=%v: ConfidenceBatch %v, scalar %v", raw, gotConfs, wantConfs)
		}
		if g, w := batchEng.QueryCount(), scalarEng.QueryCount(); g != w {
			t.Errorf("raw=%v: engine charged %d queries batched, %d scalar", raw, g, w)
		}
		if g, w := batchEng.VirtualTime(), scalarEng.VirtualTime(); g != w {
			t.Errorf("raw=%v: engine virtual time %v batched, %v scalar", raw, g, w)
		}
	}
}

// TestConfidenceDelegatesToScores pins the satellite fix: Confidence
// and ConfidenceCtx are the mean of Scores/ScoresCtx, bit for bit.
func TestConfidenceDelegatesToScores(t *testing.T) {
	eng, _, _ := fixture(t)
	v := NewValidator(eng, DefaultConfig())
	phrases := v.Phrases("author")
	for _, x := range []string{"Hemingway", "zzz"} {
		scores := v.Scores(phrases, x)
		var sum float64
		for _, s := range scores {
			sum += s
		}
		if got, want := v.Confidence(phrases, x), sum/float64(len(scores)); got != want {
			t.Errorf("Confidence(%q) = %v, mean of Scores = %v", x, got, want)
		}
	}
	if got := v.Confidence(nil, "x"); got != 0 {
		t.Errorf("Confidence with no phrases = %v, want 0", got)
	}
}

// ledgeredRun is acquisitionRun plus a decision ledger, for byte-level
// comparison of the provenance stream.
func ledgeredRun(t *testing.T, domain string, seed int64, compCfg, acqCfg Config) (*Report, map[string][]string, int, []byte) {
	t.Helper()
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

	v := NewValidator(eng, compCfg)
	acq := NewAcquirer(NewSurface(eng, v, compCfg), NewAttrDeep(pool, compCfg),
		NewAttrSurface(v, compCfg), AllComponents(), acqCfg)
	acq.SetAccounting(
		func() (time.Duration, int) { return eng.VirtualTime(), eng.QueryCount() },
		func() (time.Duration, int) { return pool.VirtualTime(), pool.QueryCount() },
	)
	var buf bytes.Buffer
	acq.SetLedger(obs.NewLedger(&buf))
	rep := acq.AcquireAll(ds)
	got := map[string][]string{}
	for _, a := range ds.AllAttributes() {
		got[a.ID] = a.Acquired
	}
	return rep, got, eng.QueryCount(), buf.Bytes()
}

// TestBatchedAcquisitionByteIdentical is the end-to-end equivalence
// gate: a full acquisition with batched validation must produce a
// byte-identical Report, identical acquired instances, identical engine
// query accounting, and byte-identical ledger NDJSON versus the forced
// scalar path — sequentially and with the worker pool on.
func TestBatchedAcquisitionByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	for _, parallelism := range []int{0, 8} {
		scalarCfg := DefaultConfig()
		scalarCfg.ScalarValidation = true
		scalarCfg.Parallelism = parallelism
		batchCfg := DefaultConfig()
		batchCfg.Parallelism = parallelism

		sRep, sGot, sQ, sLedger := ledgeredRun(t, "book", 1, scalarCfg, scalarCfg)
		bRep, bGot, bQ, bLedger := ledgeredRun(t, "book", 1, batchCfg, batchCfg)

		sJSON, err := json.Marshal(sRep)
		if err != nil {
			t.Fatal(err)
		}
		bJSON, err := json.Marshal(bRep)
		if err != nil {
			t.Fatal(err)
		}
		if string(sJSON) != string(bJSON) {
			t.Errorf("parallelism %d: batched Report differs from scalar:\nscalar: %s\nbatched: %s",
				parallelism, sJSON, bJSON)
		}
		if !reflect.DeepEqual(sGot, bGot) {
			t.Errorf("parallelism %d: acquired instances differ", parallelism)
		}
		if sQ != bQ {
			t.Errorf("parallelism %d: engine query counts differ: scalar %d, batched %d", parallelism, sQ, bQ)
		}
		// The ledger is ordered only in the sequential run; with workers
		// the scalar path itself is order-nondeterministic, so compare
		// bytes sequentially and entry counts in parallel.
		if parallelism == 0 {
			if !bytes.Equal(sLedger, bLedger) {
				sl, bl := bytes.Split(sLedger, []byte("\n")), bytes.Split(bLedger, []byte("\n"))
				for i := 0; i < len(sl) && i < len(bl); i++ {
					if !bytes.Equal(sl[i], bl[i]) {
						t.Fatalf("ledgers diverge at line %d:\nscalar:  %s\nbatched: %s", i+1, sl[i], bl[i])
					}
				}
				t.Fatalf("ledgers differ in length: scalar %d lines, batched %d", len(sl), len(bl))
			}
		} else if bytes.Count(sLedger, []byte("\n")) != bytes.Count(bLedger, []byte("\n")) {
			t.Errorf("parallelism %d: ledger entry counts differ: scalar %d, batched %d",
				parallelism, bytes.Count(sLedger, []byte("\n")), bytes.Count(bLedger, []byte("\n")))
		}
	}
}

// TestBatchedCachedAcquisitionAccounting runs the batched and scalar
// paths over a CachedEngine — the benchmark's configuration — and
// demands identical cache accounting on top of identical outputs.
func TestBatchedCachedAcquisitionAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	run := func(scalar bool) (*Report, [5]int) {
		cfg := DefaultConfig()
		cfg.ScalarValidation = scalar
		cfg.Parallelism = 8
		eng := surfaceweb.NewEngine()
		surfaceweb.BuildCorpus(eng, kb.Domains(), surfaceweb.DefaultCorpusConfig())
		cache := surfaceweb.NewCachedEngine(eng, 0)

		dom := kb.DomainByKey("book")
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())

		rep := NewPipeline(cache, pool, cfg, AllComponents()).AcquireAll(ds)
		return rep, [5]int{cache.Hits(), cache.Misses(), cache.RawQueryCount(), cache.QueryCount(), cache.Len()}
	}
	sRep, sAcct := run(true)
	bRep, bAcct := run(false)
	sJSON, _ := json.Marshal(sRep)
	bJSON, _ := json.Marshal(bRep)
	if string(sJSON) != string(bJSON) {
		t.Errorf("cached batched Report differs from scalar:\nscalar: %s\nbatched: %s", sJSON, bJSON)
	}
	if sAcct != bAcct {
		t.Errorf("cache accounting differs (hits, misses, raw, deduped, entries): scalar %v, batched %v", sAcct, bAcct)
	}
}

// TestBatchedChaosLedgerIdentical pins the fault-profile contract: with
// the p30 profile injecting errors, the batched configuration falls
// back to scalar scoring order, so its ledger NDJSON is byte-identical
// to the forced-scalar run.
func TestBatchedChaosLedgerIdentical(t *testing.T) {
	prof, err := resilience.ProfileByName("p30")
	if err != nil {
		t.Fatal(err)
	}
	opts := resilience.ClientOptions{
		Retry:   resilience.RetryPolicy{MaxAttempts: 3},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1 << 30, Cooldown: time.Hour, HalfOpenProbes: 1},
	}
	run := func(scalar bool) []byte {
		cfg := DefaultConfig() // sequential: ordered ledger
		cfg.ScalarValidation = scalar
		acq, ds := buildChaosAcquirer(t, cfg, prof, 42, opts)
		var buf bytes.Buffer
		acq.SetLedger(obs.NewLedger(&buf))
		rep := acq.AcquireAllCtx(context.Background(), ds)
		if rep.Interrupted != nil {
			t.Fatalf("run interrupted: %v", rep.Interrupted)
		}
		if len(rep.Degradations) == 0 {
			t.Fatal("p30 run absorbed no degradations; the test is vacuous")
		}
		return buf.Bytes()
	}
	s, b := run(true), run(false)
	if !bytes.Equal(s, b) {
		sl, bl := bytes.Split(s, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(sl) && i < len(bl); i++ {
			if !bytes.Equal(sl[i], bl[i]) {
				t.Fatalf("p30 ledgers diverge at line %d:\nscalar:  %s\nbatched: %s", i+1, sl[i], bl[i])
			}
		}
		t.Fatalf("p30 ledgers differ in length: %d vs %d lines", len(sl), len(bl))
	}
}
