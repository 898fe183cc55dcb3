package resilience

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webiq/internal/obs"
	"webiq/internal/surfaceweb"
)

// stubEngine is a deterministic backend for client tests.
type stubEngine struct {
	calls atomic.Int64
	fail  func(call int64) error // consulted per call; nil = never fail
}

func (s *stubEngine) Search(_ context.Context, query string, limit int) ([]surfaceweb.Snippet, error) {
	n := s.calls.Add(1)
	if s.fail != nil {
		if err := s.fail(n); err != nil {
			return nil, err
		}
	}
	out := make([]surfaceweb.Snippet, limit)
	for i := range out {
		out[i] = surfaceweb.Snippet{DocID: i, Text: query}
	}
	return out, nil
}

func (s *stubEngine) NumHits(_ context.Context, query string) (int, error) {
	n := s.calls.Add(1)
	if s.fail != nil {
		if err := s.fail(n); err != nil {
			return 0, err
		}
	}
	return len(query), nil
}

func TestInjectorDeterministic(t *testing.T) {
	prof := Profiles["p30"]
	run := func() []string {
		in := NewInjector(prof, 7)
		var got []string
		for i := 0; i < 50; i++ {
			key := strings.Repeat("q", i%5+1)
			_, err := in.inject(context.Background(), "search", key, prof.Search)
			got = append(got, Reason(err))
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	// A different seed must produce a different fault sequence.
	in := NewInjector(prof, 8)
	var c []string
	for i := 0; i < 50; i++ {
		key := strings.Repeat("q", i%5+1)
		_, err := in.inject(context.Background(), "search", key, prof.Search)
		c = append(c, Reason(err))
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 7 and seed 8 produced identical 50-call fault sequences")
	}
}

func TestInjectorRetrySeesFreshDraws(t *testing.T) {
	// With a 50% error rate, the same key must not fail forever: the
	// per-key attempt counter gives each retry a fresh draw.
	prof := Profile{Search: BackendFaults{ErrorRate: 0.5}}
	in := NewInjector(prof, 1)
	failures := 0
	for i := 0; i < 64; i++ {
		if _, err := in.inject(context.Background(), "search", "same-key", prof.Search); err != nil {
			failures++
		}
	}
	if failures == 0 || failures == 64 {
		t.Fatalf("per-key draws are not independent: %d/64 failures", failures)
	}
}

func TestInjectorRates(t *testing.T) {
	prof := Profile{Search: BackendFaults{ErrorRate: 0.3}}
	in := NewInjector(prof, 42)
	failures := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := "query-" + strings.Repeat("x", i%17)
		if _, err := in.inject(context.Background(), "search", key, prof.Search); err != nil {
			failures++
		}
	}
	frac := float64(failures) / n
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("30%% error profile injected %.1f%% failures", 100*frac)
	}
}

func TestFaultyEngineTruncatesAndFaultySourceMalforms(t *testing.T) {
	eng := &stubEngine{}
	in := NewInjector(Profile{Search: BackendFaults{TruncateRate: 1}}, 1)
	fe := FaultyEngine(eng, in)
	snips, err := fe.Search(context.Background(), "q", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(snips) != 4 {
		t.Errorf("TruncateRate=1 returned %d of 8 snippets, want 4", len(snips))
	}

	src := ProbeFunc(func(_, _, _ string) (string, error) { return "<html><body><p>Found 3 results</p></body></html>", nil })
	in2 := NewInjector(Profile{Deep: BackendFaults{MalformedRate: 1}}, 1)
	fs := FaultySource(src, in2)
	page, err := fs.Probe(context.Background(), "if0", "a0", "v")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range MalformedPages {
		if page == m {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("MalformedRate=1 returned a page outside the malformed corpus: %q", page)
	}
}

func TestBurstFaults(t *testing.T) {
	prof := Profile{Search: BackendFaults{BurstEvery: 10, BurstLen: 3}}
	in := NewInjector(prof, 1)
	var pattern []bool
	for i := 0; i < 20; i++ {
		_, err := in.inject(context.Background(), "search", "k", prof.Search)
		pattern = append(pattern, err != nil)
	}
	for i, failed := range pattern {
		want := i%10 < 3
		if failed != want {
			t.Fatalf("call %d: failed=%v, want %v", i, failed, want)
		}
	}
}

func TestRetrierBackoffDeterministicOnFakeClock(t *testing.T) {
	clock := NewFakeClock()
	pol := RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
	r := NewRetrier(pol, clock, 99)
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- r.Do(context.Background(), func(context.Context) error {
			attempts++
			return ErrTransient
		})
	}()
	// Drive the fake clock until the retrier finishes: each failed
	// attempt sleeps at most MaxDelay. Only advance once a sleeper has
	// registered, so no wake-up is lost to a race.
	for i := 0; i < 10000; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("want ErrTransient, got %v", err)
			}
			if attempts != 4 {
				t.Fatalf("want 4 attempts, got %d", attempts)
			}
			return
		default:
			if clock.Sleepers() == 0 {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			clock.Advance(pol.MaxDelay)
		}
	}
	t.Fatal("retrier did not finish under the fake clock")
}

func TestRetrierStopsOnNonRetryable(t *testing.T) {
	r := NewRetrier(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Nanosecond}, nil, 1)
	attempts := 0
	err := r.Do(context.Background(), func(context.Context) error {
		attempts++
		return ErrBreakerOpen
	})
	if !errors.Is(err, ErrBreakerOpen) || attempts != 1 {
		t.Fatalf("non-retryable error retried: attempts=%d err=%v", attempts, err)
	}
}

func TestRetrierHonorsContext(t *testing.T) {
	clock := NewFakeClock()
	r := NewRetrier(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour}, clock, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- r.Do(ctx, func(context.Context) error { return ErrTransient })
	}()
	time.Sleep(10 * time.Millisecond) // let it enter the backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retrier hung after context cancellation")
	}
}

// TestRetrierCancelMidBackoffReturnsImmediately pins the cancellation
// contract on the FakeClock: with the retrier parked in an hour-long
// jittered backoff sleep, canceling the request context must return
// context.Canceled without the clock ever advancing — no retry fires,
// fn runs exactly once — and the canceled sleeper must deregister from
// the clock instead of leaking in its waiter list.
func TestRetrierCancelMidBackoffReturnsImmediately(t *testing.T) {
	clock := NewFakeClock()
	r := NewRetrier(RetryPolicy{MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour}, clock, 7)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	done := make(chan error, 1)
	go func() {
		done <- r.Do(ctx, func(context.Context) error {
			attempts++
			return ErrTransient
		})
	}()

	// Wait until the retrier is provably inside the backoff sleep.
	deadline := time.Now().Add(5 * time.Second)
	for clock.Sleepers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retrier never entered the backoff sleep")
		}
		time.Sleep(100 * time.Microsecond)
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancellation mid-backoff did not return promptly")
	}
	if attempts != 1 {
		t.Fatalf("fn ran %d times, want 1 (no retry after cancellation)", attempts)
	}

	// Leak regression: the canceled sleeper must leave the waiter list
	// even though the clock never advanced past its wake time.
	deadline = time.Now().Add(5 * time.Second)
	for clock.Sleepers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("canceled sleeper leaked: Sleepers() = %d, want 0", clock.Sleepers())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRetrierPreCanceledContextSkipsCall: a context canceled before Do
// is entered must short-circuit without invoking fn at all.
func TestRetrierPreCanceledContextSkipsCall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRetrier(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Nanosecond}, nil, 1)
	attempts := 0
	err := r.Do(ctx, func(context.Context) error {
		attempts++
		return nil
	})
	if !errors.Is(err, context.Canceled) || attempts != 0 {
		t.Fatalf("pre-canceled Do: attempts=%d err=%v, want 0 attempts + context.Canceled", attempts, err)
	}
}

func TestBreakerOpensAndHalfOpensOnCooldown(t *testing.T) {
	clock := NewFakeClock()
	cfg := BreakerConfig{FailureThreshold: 3, Cooldown: time.Second, HalfOpenProbes: 1}
	b := NewBreaker(cfg, clock)

	// A failure burst trips it open.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected call %d: %v", i, err)
		}
		b.Record(ErrTransient)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("after %d failures state=%v, want open", cfg.FailureThreshold, b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted a call: %v", err)
	}

	// Cooldown elapses: half-open admits exactly one probe.
	clock.Advance(cfg.Cooldown)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open breaker rejected the trial call: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Failed probe re-opens; another cooldown + successful probe closes.
	b.Record(ErrTimeout)
	if b.State() != BreakerOpen {
		t.Fatalf("failed half-open probe left state=%v, want open", b.State())
	}
	clock.Advance(cfg.Cooldown)
	if err := b.Allow(); err != nil {
		t.Fatalf("second trial rejected: %v", err)
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe left state=%v, want closed", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
}

func TestBreakerNeutralOnContextErrors(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Second}, NewFakeClock())
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(context.Canceled)
	if b.State() != BreakerClosed {
		t.Fatalf("context cancellation tripped the breaker: %v", b.State())
	}
}

func TestBulkheadLimitsConcurrency(t *testing.T) {
	b := NewBulkhead(2)
	var inFlight, maxSeen atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			n := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			b.Release()
		}()
	}
	wg.Wait()
	if maxSeen.Load() > 2 {
		t.Errorf("bulkhead of 2 saw %d concurrent calls", maxSeen.Load())
	}
}

func TestEngineClientRetriesThroughTransientFaults(t *testing.T) {
	eng := &stubEngine{fail: func(call int64) error {
		if call%2 == 1 { // every odd call fails once
			return ErrTransient
		}
		return nil
	}}
	reg := obs.NewRegistry()
	c := NewEngineClient(eng, ClientOptions{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	c.Instrument(reg)
	snips, err := c.Search(context.Background(), "query", 4)
	if err != nil {
		t.Fatalf("retry did not absorb the transient fault: %v", err)
	}
	if len(snips) != 4 {
		t.Fatalf("got %d snippets, want 4", len(snips))
	}
	n, err := c.NumHits(context.Background(), "abc")
	if err != nil || n != 3 {
		t.Fatalf("NumHits = %d, %v", n, err)
	}
}

func TestSourceClientBreakerFailsFast(t *testing.T) {
	clock := NewFakeClock()
	var backendCalls atomic.Int64
	src := ProbeFunc(func(_, _, _ string) (string, error) {
		backendCalls.Add(1)
		return "", ErrTransient
	})
	c := NewSourceClient(src, ClientOptions{
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond},
		Breaker: BreakerConfig{FailureThreshold: 4, Cooldown: time.Minute, HalfOpenProbes: 1},
		Clock:   clock,
	})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := c.Probe(ctx, "if0", "a0", "v"); err == nil {
			t.Fatal("probe unexpectedly succeeded")
		}
	}
	if c.BreakerState() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", c.BreakerState())
	}
	// Once open, calls fail fast without reaching the backend.
	before := backendCalls.Load()
	if _, err := c.Probe(ctx, "if0", "a0", "v"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if backendCalls.Load() != before {
		t.Error("open breaker still reached the backend")
	}
}

func TestProfileByName(t *testing.T) {
	if _, err := ProfileByName("p30"); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestAdaptEngineHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fe := AdaptEngine(&infallibleStub{})
	if _, err := fe.Search(ctx, "q", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := fe.NumHits(ctx, "q"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

type infallibleStub struct{}

func (infallibleStub) Search(q string, limit int) []surfaceweb.Snippet { return nil }
func (infallibleStub) NumHits(q string) int                            { return 0 }
