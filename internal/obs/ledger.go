package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
)

// Decision is one recorded pipeline decision — the provenance unit of
// the ledger. Every acquisition or matching outcome that affects the
// unified interface is recorded as one Decision carrying the numeric
// evidence behind it (PMI confidence, classifier posterior, probe
// success fraction, or merge similarity with its LabelSim/DomSim
// breakdown), linked to the request's span tree by trace ID.
type Decision struct {
	// Seq is the emission order within the ledger (0-based).
	Seq int `json:"seq"`
	// TraceID/SpanID link the decision to the span tree of the request
	// (or run) that produced it.
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	// Component is the deciding component: "surface", "attr-surface",
	// "attr-deep", "outlier", or "matcher".
	Component string `json:"component"`
	// Verdict is the decision: "accept", "reject", "removed" (outlier),
	// "trained", "skip" (classifier untrainable), or "merge".
	Verdict string `json:"verdict"`
	// AttrID is the attribute the decision concerns; for matcher merges
	// it is one endpoint of the strongest supporting pair.
	AttrID string `json:"attr_id,omitempty"`
	// OtherID is the second endpoint of a matcher merge's supporting
	// pair.
	OtherID string `json:"other_id,omitempty"`
	// Label is the attribute's display label.
	Label string `json:"label,omitempty"`
	// Value is the instance value decided on, when the decision is
	// per-value.
	Value string `json:"value,omitempty"`
	// Score is the numeric evidence: PMI confidence (surface),
	// classifier posterior (attr-surface), probe success fraction
	// (attr-deep), or cluster similarity (matcher merge).
	Score float64 `json:"score"`
	// Threshold is the cutoff Score was compared against, when one
	// applies (MinScore, 0.5 posterior, 1/3 probe rule, merge τ).
	Threshold float64 `json:"threshold,omitempty"`
	// LabelSim/DomSim break a matcher merge's similarity into the
	// α·LabelSim + β·DomSim terms of the supporting pair.
	LabelSim float64 `json:"label_sim,omitempty"`
	DomSim   float64 `json:"dom_sim,omitempty"`
	// MergeOrder is the 1-based position of a merge in the clustering
	// sequence.
	MergeOrder int `json:"merge_order,omitempty"`
	// Count carries a batch size (donors borrowed, sample values
	// consulted), when meaningful.
	Count int `json:"count,omitempty"`
	// Detail carries human-readable context (donor label, thresholds,
	// failure reason).
	Detail string `json:"detail,omitempty"`
}

// Ledger records structured decision events as NDJSON (optional) and in
// an in-memory store indexed by attribute. All methods are safe for
// concurrent use and nil-safe: a nil *Ledger no-ops, so pipeline code
// guards record sites with a single nil check and the disabled path
// costs nothing (the PR-3 bench gate covers it).
type Ledger struct {
	mu  sync.Mutex
	enc *json.Encoder
	// chunks holds the decisions in emission order, ledgerChunk to a
	// chunk: a chunk is allocated full-size and never copied, so a
	// growing ledger moves no decision it already holds.
	chunks [][]Decision
	n      int
	byAttr map[string][]int

	decisions *CounterVec // component, verdict
}

// ledgerChunk is the number of decisions per chunk: about 47 KiB.
const ledgerChunk = 256

// NewLedger returns a ledger. If w is non-nil every decision is also
// written to it as one JSON object per line.
func NewLedger(w io.Writer) *Ledger {
	l := &Ledger{byAttr: map[string][]int{}}
	if w != nil {
		l.enc = json.NewEncoder(w)
	}
	return l
}

// Instrument registers the decision counter family on r:
//
//	webiq_decisions_total{component,verdict}
//
// and bumps it on every Record. Safe to call on several ledgers against
// one registry (they share the family).
func (l *Ledger) Instrument(r *Registry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.decisions = DecisionCounter(r)
	l.mu.Unlock()
}

// DecisionCounter registers (or fetches) the decision counter family
// on r, webiq_decisions_total{component,verdict}: the family an
// instrumented ledger bumps, for callers that count decisions recorded
// elsewhere.
func DecisionCounter(r *Registry) *CounterVec {
	return r.CounterVec("webiq_decisions_total",
		"Pipeline decisions recorded in the provenance ledger, by component and verdict.",
		"component", "verdict")
}

// Record appends a decision (stamping its Seq) and streams it when an
// NDJSON writer is installed.
func (l *Ledger) Record(d Decision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	d.Seq = l.n
	if l.n%ledgerChunk == 0 {
		l.chunks = append(l.chunks, make([]Decision, 0, ledgerChunk))
	}
	c := &l.chunks[len(l.chunks)-1]
	*c = append(*c, d)
	l.n++
	if d.AttrID != "" {
		l.byAttr[d.AttrID] = append(l.byAttr[d.AttrID], d.Seq)
	}
	ctr := l.decisions
	if l.enc != nil {
		// Best-effort, like span streaming: encode errors never fail
		// the pipeline.
		_ = l.enc.Encode(d)
	}
	l.mu.Unlock()
	ctr.With(d.Component, d.Verdict).Inc()
}

// RecordCtx is Record with the trace/span identity stamped from ctx.
func (l *Ledger) RecordCtx(ctx context.Context, d Decision) {
	if l == nil {
		return
	}
	if d.TraceID == "" {
		if ref, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
			d.TraceID = ref.traceID
			d.SpanID = ref.spanID
		}
	}
	l.Record(d)
}

// Len returns the number of recorded decisions.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Decisions returns a copy of all decisions in emission order.
func (l *Ledger) Decisions() []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// ByAttr returns the decisions concerning one attribute, in emission
// order.
func (l *Ledger) ByAttr(attrID string) []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pick(l.byAttr[attrID])
}

func (l *Ledger) pick(idx []int) []Decision {
	if len(idx) == 0 {
		return nil
	}
	out := make([]Decision, len(idx))
	for i, j := range idx {
		out[i] = l.chunks[j/ledgerChunk][j%ledgerChunk]
	}
	return out
}
