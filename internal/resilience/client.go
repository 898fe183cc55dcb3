package resilience

import (
	"context"

	"webiq/internal/obs"
	"webiq/internal/surfaceweb"
)

// ClientOptions tune a resilient client. Zero values take the layer
// defaults; Clock nil means the wall clock.
type ClientOptions struct {
	Retry   RetryPolicy
	Breaker BreakerConfig
	Clock   Clock
	// Seed drives the retry jitter stream (deterministic tests).
	Seed int64
}

// client is the shared resilient-call core: retry -> breaker ->
// backend.
type client struct {
	name string
	retr *Retrier
	br   *Breaker

	errs *obs.CounterVec // reason
}

func newClient(name string, opts ClientOptions) *client {
	return &client{
		name: name,
		retr: NewRetrier(opts.Retry, opts.Clock, opts.Seed),
		br:   NewBreaker(opts.Breaker, opts.Clock),
	}
}

// instrument registers the shared client metric families on r:
//
//	webiq_retries_total{backend}              re-attempts issued
//	webiq_breaker_state{backend}              0 closed / 1 half-open / 2 open
//	webiq_breaker_transitions_total{backend,state}
//	webiq_backend_errors_total{backend,reason}
//
// Several clients may share one registry; the backend label keeps them
// apart.
func (c *client) instrument(r *obs.Registry) {
	c.retr.setRetryCounter(r.CounterVec("webiq_retries_total",
		"Backend call re-attempts issued by the resilient clients.", "backend").With(c.name))
	c.br.instrument(
		r.GaugeVec("webiq_breaker_state",
			"Circuit breaker state per backend: 0 closed, 1 half-open, 2 open.", "backend").With(c.name),
		&scopedCounterVec{vec: r.CounterVec("webiq_breaker_transitions_total",
			"Circuit breaker state transitions, by backend and new state.", "backend", "state"), first: c.name})
	c.errs = r.CounterVec("webiq_backend_errors_total",
		"Terminal backend call failures after retries, by backend and reason.", "backend", "reason")
}

// scopedCounterVec curries the first label value of a two-label family,
// so the breaker can bump {backend,state} with just the state.
type scopedCounterVec struct {
	vec   *obs.CounterVec
	first string
}

// With implements the single-label slice the breaker expects.
func (s *scopedCounterVec) With(state string) *obs.Counter {
	if s == nil || s.vec == nil {
		return nil
	}
	return s.vec.With(s.first, state)
}

// do runs one logical call through the resilience layers.
func (c *client) do(ctx context.Context, fn func(ctx context.Context) error) error {
	err := c.retr.Do(ctx, func(ctx context.Context) error {
		if err := c.br.Allow(); err != nil {
			return err
		}
		err := fn(ctx)
		c.br.Record(err)
		return err
	})
	if err != nil {
		c.errs.With(c.name, Reason(err)).Inc()
	}
	return err
}

// BreakerState exposes the breaker position (for /stats).
func (c *client) BreakerState() BreakerState { return c.br.State() }

// OnBreakerTransition installs fn to run (on its own goroutine) on
// every breaker state change — the flight recorder hooks its
// breaker-open trigger here.
func (c *client) OnBreakerTransition(fn func(from, to BreakerState)) {
	c.br.SetTransitionHook(fn)
}

// EngineClient is the resilient search-engine client: every Search and
// NumHits passes bounded retry with backoff+jitter -> circuit breaker
// -> the wrapped FallibleEngine.
type EngineClient struct {
	*client
	inner FallibleEngine
}

// NewEngineClient wraps inner (typically a FaultyEngine over
// AdaptEngine) with the resilience layers under the backend name
// "search".
func NewEngineClient(inner FallibleEngine, opts ClientOptions) *EngineClient {
	return &EngineClient{client: newClient("search", opts), inner: inner}
}

// Instrument registers the client's metrics on r.
func (c *EngineClient) Instrument(r *obs.Registry) { c.instrument(r) }

// Search implements FallibleEngine.
func (c *EngineClient) Search(ctx context.Context, query string, limit int) ([]surfaceweb.Snippet, error) {
	var out []surfaceweb.Snippet
	err := c.do(ctx, func(ctx context.Context) error {
		var err error
		out, err = c.inner.Search(ctx, query, limit)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NumHits implements FallibleEngine.
func (c *EngineClient) NumHits(ctx context.Context, query string) (int, error) {
	var n int
	err := c.do(ctx, func(ctx context.Context) error {
		var err error
		n, err = c.inner.NumHits(ctx, query)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// SourceClient is the resilient Deep-Web probing client under the
// backend name "deep".
type SourceClient struct {
	*client
	inner FallibleSource
}

// NewSourceClient wraps inner (typically a FaultySource over a
// ProbeFunc lifting the source pool) with the resilience layers.
func NewSourceClient(inner FallibleSource, opts ClientOptions) *SourceClient {
	return &SourceClient{client: newClient("deep", opts), inner: inner}
}

// Instrument registers the client's metrics on r.
func (c *SourceClient) Instrument(r *obs.Registry) { c.instrument(r) }

// Probe implements FallibleSource.
func (c *SourceClient) Probe(ctx context.Context, interfaceID, attrID, value string) (string, error) {
	var page string
	err := c.do(ctx, func(ctx context.Context) error {
		var err error
		page, err = c.inner.Probe(ctx, interfaceID, attrID, value)
		return err
	})
	if err != nil {
		return "", err
	}
	return page, nil
}
