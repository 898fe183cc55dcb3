package webiq

import (
	"context"
	"sync"

	"webiq/internal/obs"
)

// This file implements graceful degradation: when a fault-injected (or
// genuinely flaky) backend fails terminally — retries exhausted, breaker
// open, hard timeout — the pipeline does not abort. Each component falls
// back along the paper's trust hierarchy and records what it gave up:
//
//	Surface search failure      -> skip the query; borrowing still runs
//	PMI validation failure      -> accept-with-flag (recorded, never silent)
//	Attr-Surface scoring failure-> skip the value / skip the classifier
//	Attr-Deep probe failure     -> one-third rule over answered probes;
//	                               skip deep validation if none answered
//
// Every event lands in three places at once: the run's
// Report.Degradations, the webiq_degraded_total{stage,reason} metric,
// and the provenance ledger (component "resilience", verdict
// "degraded"). Without fault injection the zero-fault adapters never
// fail, so no event ever fires.

// Degradation records one graceful-degradation event of an acquisition
// run.
type Degradation struct {
	// Stage is the pipeline stage that degraded: "surface" (extraction
	// search), "pmi" (Web validation), "attr-surface" (classifier), or
	// "attr-deep" (source probing).
	Stage string `json:"stage"`
	// Reason classifies the terminal error (see resilience.Reason):
	// "transient", "timeout", "breaker-open", "canceled", ...
	Reason string `json:"reason"`
	AttrID string `json:"attr_id,omitempty"`
	Label  string `json:"label,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// degradeSink collects the degradation events of one acquisition run.
// It travels via the context so the components need no new parameters,
// and it carries the acquirer's metric vec and ledger so one call fans
// out to all three records.
type degradeSink struct {
	vec    *obs.CounterVec // stage, reason (nil-safe)
	ledger *obs.Ledger

	mu     sync.Mutex
	events []Degradation
}

type degradeCtxKey struct{}

// newDegradeCtx installs a fresh sink for one acquisition run.
func (a *Acquirer) newDegradeCtx(ctx context.Context) (context.Context, *degradeSink) {
	s := &degradeSink{vec: a.mDegraded, ledger: a.ledger}
	return context.WithValue(ctx, degradeCtxKey{}, s), s
}

// degrade records one degradation event on the run's sink: appended to
// the report, counted in webiq_degraded_total{stage,reason}, and
// recorded in the ledger. A context without a sink drops the event
// (components called outside AcquireAllCtx).
func degrade(ctx context.Context, d Degradation) {
	s, _ := ctx.Value(degradeCtxKey{}).(*degradeSink)
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, d)
	s.mu.Unlock()
	s.vec.With(d.Stage, d.Reason).Inc()
	if s.ledger != nil {
		s.ledger.RecordCtx(ctx, obs.Decision{
			Component: "resilience", Verdict: "degraded",
			AttrID: d.AttrID, Label: d.Label,
			Detail: d.Stage + "/" + d.Reason + ": " + d.Detail,
		})
	}
}

// take drains the collected events.
func (s *degradeSink) take() []Degradation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.events
}
