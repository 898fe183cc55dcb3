package webiq

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/parallel"
	"webiq/internal/resilience"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
)

func TestParallelForCtxStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	parallel.For(ctx, 100000, 4, func(i int) {
		if ran.Add(1) == 8 {
			cancel()
		}
	})
	if n := ran.Load(); n >= 100000 {
		t.Fatalf("all %d iterations ran despite cancellation", n)
	}
}

func TestParallelForCtxSequentialStops(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	parallel.For(ctx, 1000, 1, func(i int) {
		ran++
		if ran == 5 {
			cancel()
		}
	})
	if ran != 5 {
		t.Fatalf("sequential path ran %d iterations after cancel at 5", ran)
	}
}

func TestParallelForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	parallel.For(ctx, 100, 4, func(i int) { ran.Add(1) })
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d iterations ran on a pre-canceled context", n)
	}
}

// cancelAfterEngine passes calls through to a real fallible engine and
// cancels the acquisition's context after a fixed number of them,
// simulating a caller abandoning the run mid-flight.
type cancelAfterEngine struct {
	eng    resilience.FallibleEngine
	calls  *atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c cancelAfterEngine) tick() {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
}

func (c cancelAfterEngine) Search(ctx context.Context, q string, limit int) ([]surfaceweb.Snippet, error) {
	c.tick()
	return c.eng.Search(ctx, q, limit)
}

func (c cancelAfterEngine) NumHits(ctx context.Context, q string) (int, error) {
	c.tick()
	return c.eng.NumHits(ctx, q)
}

// buildJobAcquirer assembles a full pipeline over a fresh job-domain
// dataset (the smallest domain), for the cancellation tests.
func buildJobAcquirer(t *testing.T, cfg Config) (*Acquirer, *schema.Dataset) {
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
	return acq, ds
}

func TestAcquireAllCtxCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 4

	// Control: a complete run on an identical fresh dataset, for the
	// expected outcome count.
	control, controlDS := buildJobAcquirer(t, cfg)
	full := control.AcquireAllCtx(context.Background(), controlDS)
	if full.Interrupted != nil {
		t.Fatalf("control run interrupted: %v", full.Interrupted)
	}

	acq, ds := buildJobAcquirer(t, cfg)
	eng, _, _ := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	acq.SetFallible(cancelAfterEngine{
		eng:    resilience.AdaptEngine(eng),
		calls:  &calls,
		after:  10,
		cancel: cancel,
	}, nil)

	before := runtime.NumGoroutine()
	rep := acq.AcquireAllCtx(ctx, ds)

	if rep.Interrupted == nil {
		t.Fatal("canceled run reported no interruption")
	}
	if !errors.Is(rep.Interrupted, context.Canceled) {
		t.Fatalf("Interrupted = %v, want context.Canceled", rep.Interrupted)
	}
	// Partial results: the run stopped before covering every attribute,
	// but what it did finish is reported normally.
	if len(rep.Outcomes) >= len(full.Outcomes) {
		t.Fatalf("canceled run produced %d outcomes, control %d; expected fewer",
			len(rep.Outcomes), len(full.Outcomes))
	}

	// No goroutine leaks: the worker pools must wind down once the
	// canceled run returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutine leak after cancellation: %d before, %d after", before, n)
	}
}

func TestAcquireAllCtxPreCanceled(t *testing.T) {
	acq, ds := buildJobAcquirer(t, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := acq.AcquireAllCtx(ctx, ds)
	if !errors.Is(rep.Interrupted, context.Canceled) {
		t.Fatalf("Interrupted = %v, want context.Canceled", rep.Interrupted)
	}
	if len(rep.Outcomes) != 0 {
		t.Fatalf("pre-canceled run produced %d outcomes", len(rep.Outcomes))
	}
}

// cancelAfterSource probes the pool directly and cancels the context
// once the given number of probes have answered.
type cancelAfterSource struct {
	pool     *deepweb.Pool
	answered *atomic.Int64
	after    int64
	cancel   context.CancelFunc
}

func (c cancelAfterSource) Probe(ctx context.Context, ifcID, attrID, value string) (string, error) {
	page := c.pool.Source(ifcID).Probe(attrID, value)
	if c.answered.Add(1) == c.after {
		c.cancel()
	}
	return page, nil
}

// TestAttrDeepLateCancelCountsAnsweredProbes pins the one-third rule
// under late cancellation: when the context is canceled only after
// every probe the verdict needs answered, a probe that answered with a
// rejection still votes. The verdict and its ledger record must equal
// the uncanceled run's. The all-reject donor's verdict is fixed after
// five rejections, so its sixth probe is never issued.
func TestAttrDeepLateCancelCountsAnsweredProbes(t *testing.T) {
	_, _, pools := fixture(t)
	pool := pools["airfare"]
	const ifcID, attrID = "airfare/if01", "airfare/if01/a1" // "Going to"
	unknown := []string{"Qzxv One", "Qzxv Two", "Qzxv Three", "Qzxv Four", "Qzxv Five"}
	cases := []struct {
		donors []string
		probes int64
		want   string
	}{
		{append([]string{"Geneva"}, unknown...), 6, `"verdict":"reject","attr_id":"airfare/if01/a1","label":"Going to","score":0.16666666666666666,"threshold":0.3333333333333333,"count":6,"detail":"donor \"City\": 1/6 probes succeeded, decided after 6 of 6"`},
		{append([]string{"Qzxv Six"}, unknown...), 5, `"verdict":"reject","attr_id":"airfare/if01/a1","label":"Going to","score":0,"threshold":0.3333333333333333,"count":5,"detail":"donor \"City\": 0/5 probes succeeded, decided after 5 of 6"`},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 4} {
			for _, late := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Parallelism = workers
				ad := NewAttrDeep(pool, cfg)
				var buf bytes.Buffer
				ad.SetLedger(obs.NewLedger(&buf))
				ctx, cancel := context.WithCancel(context.Background())
				after := int64(-1)
				if late {
					after = tc.probes
				}
				answered := new(atomic.Int64)
				NewAcquirer(nil, ad, nil, Components{AttrDeep: true}, cfg).SetFallible(nil,
					cancelAfterSource{pool: pool, answered: answered, after: after, cancel: cancel})
				vals, ok := ad.ValidateBorrowedCtx(ctx, ifcID, attrID, "Going to", "City", tc.donors)
				cancel()
				if ok || vals != nil {
					t.Errorf("donors %q, workers %d, late cancel %v: accepted %v", tc.donors, workers, late, vals)
				}
				if n := answered.Load(); n != tc.probes {
					t.Errorf("donors %q, workers %d, late cancel %v: %d probes issued, want %d", tc.donors, workers, late, n, tc.probes)
				}
				if !strings.Contains(buf.String(), tc.want) {
					t.Errorf("donors %q, workers %d, late cancel %v: ledger\n%s\nwant a decision containing %s",
						tc.donors, workers, late, buf.String(), tc.want)
				}
			}
		}
	}
}

// cancelAtHitsEngine is an infallible engine that logs every hit-count
// query reaching it and cancels a context as the after-th one answers.
type cancelAtHitsEngine struct {
	recordingEngine
	after  int
	cancel context.CancelFunc
}

func (c *cancelAtHitsEngine) NumHits(q string) int {
	n := c.recordingEngine.NumHits(q)
	c.mu.Lock()
	last := len(c.queries) == c.after
	c.mu.Unlock()
	if last {
		c.cancel()
	}
	return n
}

// TestValidatorCancelMidBurstCachesNoFailedKey cancels a zero-fault
// serial scoring run as the first candidate's last hit count answers.
// The pool claims no further candidate, so every later candidate fails
// with the context's error and none of its keys reaches the engine.
// Nothing failed is cached: scoring the same candidates again on a live
// context asks the engine for exactly the queries the first run did not
// answer, and scores what a fresh validator scores.
func TestValidatorCancelMidBurstCachesNoFailedKey(t *testing.T) {
	eng, _, _ := fixture(t)
	xs := []string{"Ernest Hemingway", "updike", "Toni Morrison", "zzz-unknown", "software engineer"}

	ref := &recordingEngine{inner: eng}
	refV := NewValidator(ref, DefaultConfig())
	phrases := refV.Phrases("author")
	// k is how many queries scoring xs[0] alone asks; the cancel lands
	// as the last of them answers.
	refV.ScoresCtx(context.Background(), phrases, xs[:1], 1, nil)
	k := len(ref.log())
	want, _ := refV.ScoresCtx(context.Background(), phrases, xs, 1, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ce := &cancelAtHitsEngine{recordingEngine: recordingEngine{inner: eng}, after: k, cancel: cancel}
	v := NewValidator(ce, DefaultConfig())
	got, errs := v.ScoresCtx(ctx, phrases, xs, 1, nil)
	first := ce.multiset()
	if len(first) != k {
		t.Fatalf("%d queries reached the engine, want %d: no key after the cancel may be asked", len(first), k)
	}
	if errs[0] != nil || !reflect.DeepEqual(got[0], want[0]) {
		t.Errorf("candidate %q: scores %v (err %v), want %v", xs[0], got[0], errs[0], want[0])
	}
	for i := 1; i < len(xs); i++ {
		if !errors.Is(errs[i], context.Canceled) || got[i] != nil {
			t.Errorf("candidate %q: scores %v, err %v; want nil, context.Canceled", xs[i], got[i], errs[i])
		}
	}

	got, errs = v.ScoresCtx(context.Background(), phrases, xs, 1, nil)
	if !reflect.DeepEqual(errs, make([]error, len(xs))) || !reflect.DeepEqual(got, want) {
		t.Errorf("rerun on a live context: scores %v (errs %v), fresh validator %v", got, errs, want)
	}
	all := ce.multiset()
	if w := ref.multiset(); !reflect.DeepEqual(all, w) {
		t.Errorf("engine queries over both runs differ from one fresh run's:\ngot:  %q\nwant: %q", all, w)
	}
}
