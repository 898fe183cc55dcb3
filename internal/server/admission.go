package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"webiq/internal/obs"
)

// AdmissionConfig bounds how much concurrent work the server accepts.
// Requests beyond MaxInFlight wait in a bounded queue; requests beyond
// the queue are shed immediately with 503 + Retry-After, so an
// overloaded (or fault-degraded, hence slow) pipeline turns excess load
// into fast, explicit rejections instead of piling up goroutines.
type AdmissionConfig struct {
	// MaxInFlight is the number of requests served concurrently;
	// <= 0 disables admission control entirely.
	MaxInFlight int
	// MaxQueued is how many requests may wait for a slot; <= 0 sheds
	// as soon as every slot is busy.
	MaxQueued int
	// RetryAfter is the base Retry-After hint attached to shed
	// responses (default 1s). The actual hint scales with the live
	// queue depth — see retryAfterHint.
	RetryAfter time.Duration
}

// retryAfterCapFactor bounds the derived Retry-After hint at this
// multiple of the configured base, so a deep queue never tells clients
// to disappear for minutes.
const retryAfterCapFactor = 10

// admission is the bounded admission queue. A nil *admission admits
// everything.
type admission struct {
	cfg   AdmissionConfig
	slots chan struct{}

	queued   atomic.Int64
	draining atomic.Bool

	// Metrics (nil-safe).
	mShed     *obs.CounterVec // reason: queue-full, draining
	gInFlight *obs.Gauge
	gQueued   *obs.Gauge
}

// newAdmission returns an admission queue, or nil when cfg disables it.
func newAdmission(cfg AdmissionConfig) *admission {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return &admission{cfg: cfg, slots: make(chan struct{}, cfg.MaxInFlight)}
}

// instrument registers the admission metrics on r (nil-safe).
func (a *admission) instrument(r *obs.Registry) {
	if a == nil {
		return
	}
	a.mShed = r.CounterVec("webiq_admission_shed_total", "Requests shed by the admission queue, by reason.", "reason")
	a.gInFlight = r.Gauge("webiq_admission_in_flight", "Requests currently holding an admission slot.")
	a.gQueued = r.Gauge("webiq_admission_queued", "Requests currently waiting for an admission slot.")
}

// beginDrain stops admitting new requests: arrivals are shed with 503
// while already-queued and in-flight requests run to completion.
func (a *admission) beginDrain() {
	if a == nil {
		return
	}
	a.draining.Store(true)
}

// isDraining reports whether beginDrain was called.
func (a *admission) isDraining() bool { return a != nil && a.draining.Load() }

// stats snapshots the queue state for /stats.
func (a *admission) stats() (inFlight, queued, capacity, queueCap int, draining bool) {
	if a == nil {
		return 0, 0, 0, 0, false
	}
	return len(a.slots), int(a.queued.Load()), a.cfg.MaxInFlight, a.cfg.MaxQueued, a.draining.Load()
}

// retryAfterHint derives the Retry-After seconds from the shed reason
// and the live queue state, instead of handing every client the same
// static hint (which synchronizes their retries into the next wave of
// overload). Queue-full sheds scale with how much work already waits
// ahead of the client — base × (1 + queued/maxInFlight), i.e. roughly
// how many service generations must drain first — capped at
// retryAfterCapFactor × base. A draining node will never admit again,
// so it answers with the cap outright: come back late, and to a load
// balancer that has moved on.
func (a *admission) retryAfterHint(reason string) int {
	base := int((a.cfg.RetryAfter + time.Second - 1) / time.Second)
	if base < 1 {
		base = 1
	}
	switch reason {
	case "draining":
		return base * retryAfterCapFactor
	case "queue-full":
		hint := base * (1 + int(a.queued.Load())/a.cfg.MaxInFlight)
		if limit := base * retryAfterCapFactor; hint > limit {
			return limit
		}
		return hint
	default:
		return base
	}
}

// shed writes the 503 + Retry-After rejection; X-Shed-Reason and the
// body name the reason.
func (a *admission) shed(w http.ResponseWriter, reason string) {
	a.mShed.With(reason).Inc()
	w.Header().Set("X-Shed-Reason", reason)
	w.Header().Set("Retry-After", strconv.Itoa(a.retryAfterHint(reason)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte(`{"error":"server overloaded, retry later","reason":"` + reason + `"}` + "\n"))
}

// enter takes an admission slot, waiting in the bounded queue while
// every slot is busy. It returns "" once the request holds a slot,
// which it gives back with release, or the reason it was refused one:
// "draining", "queue-full", or "canceled" when ctx ends while queued.
// A nil *admission admits everything.
func (a *admission) enter(ctx context.Context) string {
	if a == nil {
		return ""
	}
	if a.draining.Load() {
		return "draining"
	}
	select {
	case a.slots <- struct{}{}:
		// Fast path: a slot is free.
	default:
		// Reserve a queue place atomically; overshoot backs out.
		if q := a.queued.Add(1); int(q) > a.cfg.MaxQueued {
			a.queued.Add(-1)
			return "queue-full"
		}
		a.gQueued.Set(float64(a.queued.Load()))
		select {
		case a.slots <- struct{}{}:
			a.queued.Add(-1)
			a.gQueued.Set(float64(a.queued.Load()))
		case <-ctx.Done():
			a.queued.Add(-1)
			a.gQueued.Set(float64(a.queued.Load()))
			// The client is gone; the 503 is the least-wrong status
			// for whoever is still listening.
			return "canceled"
		}
	}
	a.gInFlight.Set(float64(len(a.slots)))
	return ""
}

// release gives back the slot enter took.
func (a *admission) release() {
	if a == nil {
		return
	}
	<-a.slots
	a.gInFlight.Set(float64(len(a.slots)))
}
