package webiq

import (
	"context"
	"time"

	"webiq/internal/obs"
)

// This file wires the Acquirer into the obs layer: metric counters for
// the acquisition policy and per-component spans carrying the same
// wall/virtual durations and query counts as the Report's Figure-8
// overhead fields. Everything is nil-safe: without SetObserver /
// SetSpanTracer the hot path pays only nil-check branches.

// SetObserver registers the acquirer's metrics on r and cascades to the
// Attr-Surface component's classifier counters:
//
//	webiq_acquire_attributes_total{result}            attributes processed
//	webiq_acquire_instances_total{component}          instances accepted
//	webiq_acquire_borrowed_total{component}           candidates borrowed
//	webiq_acquire_component_virtual_seconds_total{component}
//	webiq_acquire_component_queries_total{component}  substrate queries
//	webiq_classifier_decisions_total{decision}        accept/reject/skip
//
// The component label matches the Method names ("surface", "attr-deep",
// "attr-surface"); the per-component virtual seconds and queries
// reconcile exactly with the Report's SurfaceTime/SurfaceQueries (etc.)
// fields for a single AcquireAllCtx run. Passing nil uninstalls nothing
// and leaves the acquirer uninstrumented.
func (a *Acquirer) SetObserver(r *obs.Registry) {
	a.mAttrs = r.CounterVec("webiq_acquire_attributes_total", "Attributes processed by the acquisition policy, by result.", "result")
	a.mInstances = r.CounterVec("webiq_acquire_instances_total", "Instances accepted into attributes, by acquisition component.", "component")
	a.mBorrowed = r.CounterVec("webiq_acquire_borrowed_total", "Candidate instances borrowed for validation, by component.", "component")
	a.mCompVirtual = r.CounterVec("webiq_acquire_component_virtual_seconds_total", "Simulated substrate time attributed to each component, in seconds.", "component")
	a.mCompQueries = r.CounterVec("webiq_acquire_component_queries_total", "Substrate queries attributed to each component.", "component")
	a.mDegraded = r.CounterVec("webiq_degraded_total", "Graceful-degradation events absorbed by the pipeline, by stage and error reason.", "stage", "reason")
	if a.attrSurface != nil {
		a.attrSurface.Instrument(r)
	}
}

// SetSpanTracer installs a span tracer: AcquireAllCtx emits one
// "acquire-all" span per run and one span per component invocation
// ("surface", "attr-deep", "attr-surface"), each carrying the wall
// time, the virtual substrate time, and the query count attributed to
// that invocation. Summing a component's spans reproduces the Report's
// overhead fields. nil disables span tracing.
func (a *Acquirer) SetSpanTracer(t *obs.Tracer) { a.spans = t }

// SetLedger installs the decision-provenance ledger on every enabled
// component: Surface verification (PMI accept/reject and outlier
// removals), Attr-Surface classification (training, posterior
// accept/reject), and Attr-Deep probing (one-third-rule verdicts).
// nil disables recording everywhere.
func (a *Acquirer) SetLedger(l *obs.Ledger) {
	a.ledger = l
	if a.surface != nil {
		a.surface.SetLedger(l)
	}
	if a.attrSurface != nil {
		a.attrSurface.SetLedger(l)
	}
	if a.attrDeep != nil {
		a.attrDeep.SetLedger(l)
	}
}

// chargeComponent accounts one component invocation in the metrics.
func (a *Acquirer) chargeComponent(component string, virtual time.Duration, queries int) {
	a.mCompVirtual.With(component).Add(virtual.Seconds())
	a.mCompQueries.With(component).Add(float64(queries))
}

// componentSpanCtx starts a span for one component invocation on an
// attribute as a child of the span carried by ctx, returning the
// derived context alongside. With no tracer installed the span is nil
// (safely) and ctx comes back unchanged.
func (a *Acquirer) componentSpanCtx(ctx context.Context, component, attrID, label string) (context.Context, *obs.Span) {
	spCtx, sp := a.spans.StartSpan(ctx, component)
	sp.Label("attr", attrID).Label("label", label)
	return spCtx, sp
}

// endComponent finishes a component invocation: closes the span with
// its virtual/query attribution and bumps the component counters.
func (a *Acquirer) endComponent(sp *obs.Span, component string, virtual time.Duration, queries int) {
	sp.AddVirtual(virtual)
	sp.AddQueries(queries)
	sp.End()
	a.chargeComponent(component, virtual, queries)
}
