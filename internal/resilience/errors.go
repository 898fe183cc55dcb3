// Package resilience makes the acquisition substrates fallible — and
// survivable. WebIQ acquires instances from remote, unreliable systems
// (a Web search engine, live Deep-Web sources), which the simulation
// models as infallible in-memory calls. This package restores the
// failure modes the real system would face and the machinery a serving
// stack needs to absorb them:
//
//   - FallibleEngine / FallibleSource: error-aware, context-aware
//     interfaces over the search engine and the Deep-Web sources;
//   - Injector: a deterministic, seed-driven fault injector producing
//     transient errors, hard timeouts, injected latency, truncated
//     snippet lists, and malformed/empty probe response pages from a
//     named Profile;
//   - Retrier: bounded retries with exponential backoff and full
//     jitter, on a pluggable Clock so tests are deterministic and
//     instant;
//   - Breaker: a per-backend circuit breaker (closed / open /
//     half-open with cooldown);
//   - EngineClient / SourceClient: the resilient clients layering
//     retry -> breaker -> backend, with retry/breaker metrics.
//
// With no injector and no client installed the pipeline never sees
// this package: the webiq components keep calling the infallible
// substrates directly, so experiment outputs are byte-identical.
package resilience

import (
	"context"
	"errors"
	"fmt"
)

// Error taxonomy. Transient errors and timeouts are retryable; an open
// breaker and context cancellation are not (retrying them only burns
// the caller's deadline).
var (
	// ErrTransient is a momentary backend failure (the HTTP 5xx / reset
	// connection of the simulation). Retryable.
	ErrTransient = errors.New("resilience: transient backend error")
	// ErrTimeout is a hard per-call timeout: the backend did not answer
	// within its deadline. Retryable.
	ErrTimeout = errors.New("resilience: backend timeout")
	// ErrBreakerOpen is returned without touching the backend while a
	// circuit breaker is open. Not retryable: the breaker exists to stop
	// hammering a failing backend.
	ErrBreakerOpen = errors.New("resilience: circuit breaker open")
	// ErrUnknownSource is returned when a probe names a source the pool
	// does not back. Not retryable.
	ErrUnknownSource = errors.New("resilience: unknown deep-web source")
)

// Retryable reports whether err is worth retrying: transient errors and
// timeouts are; breaker rejections, context cancellation, and unknown
// sources are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTransient) || errors.Is(err, ErrTimeout) {
		return true
	}
	return false
}

// Reason maps an error to a low-cardinality label for metrics and
// degradation records.
func Reason(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, ErrTransient):
		return "transient"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, ErrUnknownSource):
		return "unknown-source"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "other"
	}
}

// faultErr wraps a sentinel with call context while keeping errors.Is
// working against the sentinel.
type faultErr struct {
	sentinel error
	backend  string
	key      string
}

func (e *faultErr) Error() string {
	return fmt.Sprintf("%v (backend %s, key %q)", e.sentinel, e.backend, e.key)
}

func (e *faultErr) Unwrap() error { return e.sentinel }
