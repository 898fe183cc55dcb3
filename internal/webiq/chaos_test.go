package webiq

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
)

// buildChaosAcquirer assembles the full pipeline over a fresh
// job-domain dataset with fault-injecting resilient clients installed:
// the injector wraps both the search engine and the probe pool, and the
// clients add retry + breaker on top, exactly as the CLI -faults flag
// wires it.
func buildChaosAcquirer(t *testing.T, cfg Config, prof resilience.Profile, seed int64, opts resilience.ClientOptions) (*Acquirer, *schema.Dataset) {
	t.Helper()
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey("job")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	v := NewValidator(eng, cfg)
	acq := NewAcquirer(NewSurface(eng, v, cfg), NewAttrDeep(pool, cfg),
		NewAttrSurface(v, cfg), AllComponents(), cfg)
	acq.SetAccounting(
		func() (time.Duration, int) { return 0, 0 },
		func() (time.Duration, int) { return 0, 0 },
	)

	inj := resilience.NewInjector(prof, seed)
	opts.Seed = seed
	fe := resilience.NewEngineClient(
		resilience.FaultyEngine(resilience.AdaptEngine(eng), inj), opts)
	fs := resilience.NewSourceClient(
		resilience.FaultySource(resilience.ProbeFunc(func(ifcID, attrID, value string) (string, error) {
			src := pool.Source(ifcID)
			if src == nil {
				return "", resilience.ErrUnknownSource
			}
			return src.Probe(attrID, value), nil
		}), inj), opts)
	acq.SetFallible(fe, fs)
	return acq, ds
}

// TestChaosProfilesTerminate drives the full acquisition pipeline
// through every named fault profile and asserts the contract of
// graceful degradation: the run always terminates, never reports a
// spurious interruption, and every absorbed fault surfaces as a
// structured Degradation rather than vanishing silently.
func TestChaosProfilesTerminate(t *testing.T) {
	for _, name := range []string{"p10", "p30", "latency2x", "burst", "malformed"} {
		t.Run(name, func(t *testing.T) {
			prof, err := resilience.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Parallelism = 4
			acq, ds := buildChaosAcquirer(t, cfg, prof, 7, resilience.ClientOptions{})

			done := make(chan *Report, 1)
			go func() { done <- acq.AcquireAllCtx(context.Background(), ds) }()
			var rep *Report
			select {
			case rep = <-done:
			case <-time.After(2 * time.Minute):
				t.Fatal("chaos run did not terminate")
			}

			if rep.Interrupted != nil {
				t.Fatalf("uncanceled chaos run reported Interrupted: %v", rep.Interrupted)
			}
			for _, d := range rep.Degradations {
				if d.Stage == "" || d.Reason == "" {
					t.Errorf("unstructured degradation: %+v", d)
				}
			}
			if name == "p30" && len(rep.Degradations) == 0 {
				t.Error("the 30-percent-error profile produced zero degradation events")
			}
			t.Logf("%s: %d degradations, success rate %.1f%%",
				name, len(rep.Degradations), rep.SuccessRate())
		})
	}
}

// TestChaosLedgerDeterministic runs the same fault profile with the
// same seed twice, sequentially, and demands byte-identical ledger
// NDJSON: fault decisions depend only on (seed, backend, key, attempt),
// never on wall time or interleaving. Retry delays are zeroed and the
// breaker threshold raised out of reach so the real clock cannot leak
// into control flow.
func TestChaosLedgerDeterministic(t *testing.T) {
	prof, err := resilience.ProfileByName("p30")
	if err != nil {
		t.Fatal(err)
	}
	opts := resilience.ClientOptions{
		Retry:   resilience.RetryPolicy{MaxAttempts: 3},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1 << 30, Cooldown: time.Hour, HalfOpenProbes: 1},
	}
	run := func() []byte {
		cfg := DefaultConfig() // Parallelism 0: sequential, ordered ledger
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
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(la) && i < len(lb); i++ {
			if !bytes.Equal(la[i], lb[i]) {
				t.Fatalf("ledgers diverge at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("ledgers differ in length: %d vs %d lines", len(la), len(lb))
	}
}

// TestChaosDifferentSeedsDiffer guards the determinism test against a
// stuck injector: a different seed must fault differently.
func TestChaosDifferentSeedsDiffer(t *testing.T) {
	prof, err := resilience.ProfileByName("p30")
	if err != nil {
		t.Fatal(err)
	}
	opts := resilience.ClientOptions{
		Retry:   resilience.RetryPolicy{MaxAttempts: 3},
		Breaker: resilience.BreakerConfig{FailureThreshold: 1 << 30, Cooldown: time.Hour, HalfOpenProbes: 1},
	}
	run := func(seed int64) []byte {
		cfg := DefaultConfig()
		acq, ds := buildChaosAcquirer(t, cfg, prof, seed, opts)
		var buf bytes.Buffer
		acq.SetLedger(obs.NewLedger(&buf))
		acq.AcquireAllCtx(context.Background(), ds)
		return buf.Bytes()
	}
	if bytes.Equal(run(1), run(2)) {
		t.Error("seeds 1 and 2 produced identical ledgers; injector ignores its seed")
	}
}

// TestChaosAttrDeepMatchesOracle runs Attr-Deep validation under every
// named fault profile over the book domain's real (attribute, donor)
// pairs. For every donor the ledger's per-donor verdict must equal the
// one-third rule applied to the probes of the whole capped sample that
// answered: each answered probe votes with the fault-free page the
// source would have served, unless the injector swapped in a malformed
// page, which votes as it reads. A failed probe shrinks the sample, and
// a donor with no answered probe must be recorded as "skip". The probes
// the early stop skipped are replayed right after the issued ones, so
// they draw the faults a full-sample run would have drawn. The issued
// probes must be the shortest prefix of the sample that fixes the
// verdict, and the ledger's Score and Count must be that prefix's.
// Probes run sequentially, retries are off and the breaker is out of
// reach, so every fault reaches the component undiluted and lines up
// with its probe. Each pair gets a fresh component, so its probe memo
// starts empty and every value the pair consults reaches the log.
func TestChaosAttrDeepMatchesOracle(t *testing.T) {
	dom := kb.DomainByKey("book")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	cfg := DefaultConfig()
	pairs := donorPairs(ds, cfg)
	if len(pairs) == 0 {
		t.Fatal("book has no Attr-Deep donor pairs; the test is vacuous")
	}
	malformed := map[string]bool{}
	for _, p := range resilience.MalformedPages {
		malformed[p] = true
	}
	names := make([]string, 0, len(resilience.Profiles))
	for name := range resilience.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			prof := resilience.Profiles[name]
			log := &probeLog{inner: resilience.NewSourceClient(
				resilience.FaultySource(sourceProbe(pool.Source), resilience.NewInjector(prof, 7)),
				noRetry)}
			ledger := obs.NewLedger(nil)

			failed, swapped, skipped := 0, 0, 0
			for _, p := range pairs {
				// A fresh component per pair: its probe memo would
				// otherwise answer values an earlier pair probed, and
				// those answers would never reach the log.
				ad := NewAttrDeep(pool, cfg)
				ad.setFallible(log)
				ad.SetLedger(ledger)
				log.calls = nil
				n0 := ledger.Len()
				values := p.donor.AllInstances()
				_, ok := ad.ValidateBorrowedCtx(context.Background(), p.ifc.ID, p.attr.ID, p.attr.Label, p.donor.Label, values)

				sample := values
				if cfg.MaxBorrowProbes > 0 && len(sample) > cfg.MaxBorrowProbes {
					sample = sample[:cfg.MaxBorrowProbes]
				}
				issued := len(log.calls)
				if issued > len(sample) {
					t.Fatalf("%s via %q: %d probes issued from a sample of %d", p.attr.ID, p.donor.Label, issued, len(sample))
				}
				calls := append([]probeCall(nil), log.calls...)
				for _, v := range sample[issued:] {
					page, err := log.inner.Probe(context.Background(), p.ifc.ID, p.attr.ID, v)
					calls = append(calls, probeCall{p.ifc.ID, p.attr.ID, v, page, err})
				}
				outcomes := make([]byte, len(calls))
				src := pool.Source(p.ifc.ID)
				for i, c := range calls {
					if c.err != nil {
						failed++
						outcomes[i] = 'f'
						continue
					}
					page := src.Probe(p.attr.ID, c.value)
					if c.page != page {
						if !malformed[c.page] {
							t.Fatalf("%s probe %q answered a page that is neither the source's nor an injected malformed one", p.attr.ID, c.value)
						}
						swapped++
						page = c.page
					}
					outcomes[i] = 'r'
					if deepweb.AnalyzeResponse(page) {
						outcomes[i] = 's'
					}
				}
				if m := minimalPrefix(outcomes); issued != m {
					t.Errorf("%s via %q: outcomes %s, %d probes issued, the verdict is fixed after %d", p.attr.ID, p.donor.Label, outcomes, issued, m)
				}

				var verdicts []obs.Decision
				for _, d := range ledger.Decisions()[n0:] {
					if d.Value == "" {
						verdicts = append(verdicts, d)
					}
				}
				if len(verdicts) != 1 {
					t.Fatalf("%s via %q: %d per-donor verdicts, want 1: %+v", p.attr.ID, p.donor.Label, len(verdicts), verdicts)
				}
				got := verdicts[0]
				want := oneThirdVerdict(outcomes)
				success, answered := tally(outcomes[:issued])
				score := 0.0
				if answered > 0 {
					score = float64(success) / float64(answered)
				}
				if want == "skip" {
					skipped++
				}
				if got.Component != "attr-deep" || got.Verdict != want || got.Score != score || got.Count != issued {
					t.Errorf("%s via %q: ledger %s score=%v count=%d, oracle %s score=%v count=%d (outcomes %s)",
						p.attr.ID, p.donor.Label, got.Verdict, got.Score, got.Count, want, score, issued, outcomes)
				}
				if ok != (want == "accept") {
					t.Errorf("%s via %q: returned ok=%v for verdict %s", p.attr.ID, p.donor.Label, ok, want)
				}
			}
			if prof.Deep.ErrorRate > 0 || prof.Deep.BurstLen > 0 {
				if failed == 0 {
					t.Error("probe faults injected but no probe failed; the test is vacuous")
				}
			}
			if prof.Deep.MalformedRate > 0 && swapped == 0 {
				t.Error("malformed pages injected but none was served; the test is vacuous")
			}
			t.Logf("%s: %d donors, %d probes failed, %d malformed answers, %d donors skipped", name, len(pairs), failed, swapped, skipped)
		})
	}
}

// noRetry keeps every injected fault visible to the component: one
// attempt per ask, and a breaker that never opens.
var noRetry = resilience.ClientOptions{
	Seed:    7,
	Retry:   resilience.RetryPolicy{MaxAttempts: 1},
	Breaker: resilience.BreakerConfig{FailureThreshold: 1 << 30, Cooldown: time.Hour, HalfOpenProbes: 1},
}

// probeLog passes probes through to a fallible source and remembers
// every answer, in call order.
type probeLog struct {
	inner resilience.FallibleSource
	mu    sync.Mutex
	calls []probeCall
}

type probeCall struct {
	ifc, attr, value, page string
	err                    error
}

func (p *probeLog) Probe(ctx context.Context, interfaceID, attrID, value string) (string, error) {
	page, err := p.inner.Probe(ctx, interfaceID, attrID, value)
	p.mu.Lock()
	p.calls = append(p.calls, probeCall{interfaceID, attrID, value, page, err})
	p.mu.Unlock()
	return page, err
}

// failLog passes calls through to a fallible engine and remembers every
// hit-count query that came back with an error.
type failLog struct {
	inner  resilience.FallibleEngine
	mu     sync.Mutex
	failed map[string]bool
}

func (f *failLog) Search(ctx context.Context, q string, limit int) ([]surfaceweb.Snippet, error) {
	return f.inner.Search(ctx, q, limit)
}

func (f *failLog) NumHits(ctx context.Context, q string) (int, error) {
	n, err := f.inner.NumHits(ctx, q)
	if err != nil {
		f.mu.Lock()
		f.failed[q] = true
		f.mu.Unlock()
	}
	return n, err
}

// searchCall is one extraction search as a fault run saw it.
type searchCall struct {
	query  string
	failed bool
	snips  []surfaceweb.Snippet
}

// searchLog records every extraction search, in call order, on its way
// through to the inner engine.
type searchLog struct {
	inner resilience.FallibleEngine
	calls []searchCall
}

func (l *searchLog) Search(ctx context.Context, q string, limit int) ([]surfaceweb.Snippet, error) {
	snips, err := l.inner.Search(ctx, q, limit)
	l.calls = append(l.calls, searchCall{query: q, failed: err != nil, snips: snips})
	return snips, err
}

func (l *searchLog) NumHits(ctx context.Context, q string) (int, error) {
	return l.inner.NumHits(ctx, q)
}

// replayEngine replays a fault run's searches on the fault-free engine:
// a search that failed in the fault run fails again, so it finds
// nothing and, as in the fault run, Surface's search memo does not
// remember it; one that answered gets the fault-free answer cut to the
// length the fault run got (the injector may truncate a result list).
// Every answer of the fault run must be a prefix of the fault-free one.
type replayEngine struct {
	t     *testing.T
	inner resilience.FallibleEngine
	calls []searchCall
	next  int
}

func (r *replayEngine) Search(ctx context.Context, q string, limit int) ([]surfaceweb.Snippet, error) {
	if r.next == len(r.calls) || r.calls[r.next].query != q {
		r.t.Fatalf("replay call %d searches %q; the fault run searched otherwise", r.next, q)
	}
	c := r.calls[r.next]
	r.next++
	if c.failed {
		return nil, resilience.ErrTransient
	}
	snips, err := r.inner.Search(ctx, q, limit)
	if err != nil || len(c.snips) > len(snips) || !reflect.DeepEqual(c.snips, snips[:len(c.snips)]) {
		r.t.Errorf("fault run answered %q with %d snippets that are not a prefix of the fault-free %d (err %v)",
			q, len(c.snips), len(snips), err)
		return snips, err
	}
	return snips[:len(c.snips)], nil
}

func (r *replayEngine) NumHits(ctx context.Context, q string) (int, error) {
	return r.inner.NumHits(ctx, q)
}

// TestChaosSurfaceExtractMatchesOracle runs Surface extraction under
// every named fault profile, with retries off and the breaker out of
// reach, over the first interface of every paper domain. A failed
// search may only cost the candidates its own snippets would have
// yielded: extraction must equal a fault-free run over the same
// searches in which the failed ones found nothing and the truncated
// ones were cut. Both components keep their search memos across the
// attributes, so a query the fault run answered once is not asked
// again, and one that failed is.
func TestChaosSurfaceExtractMatchesOracle(t *testing.T) {
	eng, data, _ := fixture(t)
	names := make([]string, 0, len(resilience.Profiles))
	for name := range resilience.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			prof := resilience.Profiles[name]
			cfg := DefaultConfig()
			surface := NewSurface(eng, NewValidator(eng, cfg), cfg)
			log := &searchLog{inner: resilience.NewEngineClient(
				resilience.FaultyEngine(resilience.AdaptEngine(eng), resilience.NewInjector(prof, 7)),
				noRetry)}
			surface.setFallible(log)
			clean := NewSurface(eng, NewValidator(eng, cfg), cfg)
			replay := &replayEngine{t: t, inner: resilience.AdaptEngine(eng)}
			clean.setFallible(replay)

			extracted, failed := 0, 0
			for _, dom := range kb.Domains() {
				ds := data[dom.Key]
				ifc := ds.Interfaces[0]
				for _, a := range ifc.Attributes {
					from := len(log.calls)
					got := surface.Extract(a, ifc, ds)
					replay.calls, replay.next = log.calls[from:], 0
					want := clean.Extract(a, ifc, ds)
					if replay.next != len(replay.calls) {
						t.Errorf("%s/%s: replay made %d of the fault run's %d searches", dom.Key, a.Label, replay.next, len(replay.calls))
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s: extracted %v, fault-free run over the same searches %v", dom.Key, a.Label, got, want)
					}
					extracted += len(got)
				}
			}
			for _, c := range log.calls {
				if c.failed {
					failed++
				}
			}
			if extracted == 0 {
				t.Error("nothing extracted; the comparison is vacuous")
			}
			if faulty := prof.Search.ErrorRate > 0 || prof.Search.BurstLen > 0; faulty && failed == 0 {
				t.Error("search faults injected but no search failed; the test is vacuous")
			}
			t.Logf("%s: %d searches, %d failed, %d candidates", name, len(log.calls), failed, extracted)
		})
	}
}

// TestChaosValidatorMatchesOracle runs parallel PMI validation under
// every named fault profile. A hit-count failure may only cost the
// candidates that need the failed query: every candidate that scores
// must equal the fault-free scalar reference exactly, and every
// candidate that fails must need a query that failed. Two passes run
// over the same validator, since failures are not cached and the
// second pass asks again for exactly the failed queries. Retries are
// off so the fault rates reach the validator undiluted.
func TestChaosValidatorMatchesOracle(t *testing.T) {
	eng, _, _ := fixture(t)
	xs := []string{"Hemingway", "updike", "Toni Morrison", "Toyota", "zzz-unknown",
		"Hemingway", "software engineer", "Boston", "January", "Penguin"}
	names := make([]string, 0, len(resilience.Profiles))
	for name := range resilience.Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			prof := resilience.Profiles[name]
			cfg := DefaultConfig()
			cfg.Parallelism = 4
			ref := newRefValidator(eng, cfg)
			v := NewValidator(eng, cfg)
			phrases := v.Phrases("author")
			log := &failLog{failed: map[string]bool{}, inner: resilience.NewEngineClient(
				resilience.FaultyEngine(resilience.AdaptEngine(eng), resilience.NewInjector(prof, 7)),
				noRetry)}
			v.SetFallible(log)

			scored, failed := 0, 0
			for pass := 0; pass < 2; pass++ {
				scores, errs := v.ScoresCtx(context.Background(), phrases, xs, cfg.Parallelism, nil)
				for i, x := range xs {
					if errs[i] == nil {
						scored++
						if want := ref.scores(phrases, x); !reflect.DeepEqual(scores[i], want) {
							t.Errorf("pass %d: %q scored %v, reference %v", pass, x, scores[i], want)
						}
						continue
					}
					failed++
					if scores[i] != nil {
						t.Errorf("pass %d: failed %q still carries scores %v", pass, x, scores[i])
					}
					needed := false
					for _, p := range phrases {
						for _, k := range ref.keys(p, x) {
							needed = needed || log.failed[k]
						}
					}
					if !needed {
						t.Errorf("pass %d: %q failed (%v) without needing a failed query", pass, x, errs[i])
					}
				}
			}
			if scored == 0 {
				t.Error("no candidate scored; the comparison is vacuous")
			}
			if faulty := prof.Search.ErrorRate > 0 || prof.Search.BurstLen > 0; faulty && failed == 0 {
				t.Error("search faults injected but no candidate failed; the test is vacuous")
			}
			t.Logf("%s: %d scored, %d failed", name, scored, failed)
		})
	}
}
