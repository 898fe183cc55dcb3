package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one finished span as exported to the NDJSON log.
// Durations are nanoseconds; StartNS is relative to the tracer's
// construction so runs are comparable regardless of wall clock.
//
// TraceID/SpanID/ParentID carry the request-scoped trace identity:
// every span belongs to exactly one trace, and ParentID links it to the
// span that was active when it started.
type SpanRecord struct {
	// TraceID groups every span of one request (or one CLI run).
	TraceID string `json:"trace_id,omitempty"`
	// SpanID identifies this span within its trace.
	SpanID string `json:"span_id,omitempty"`
	// ParentID is the SpanID of the enclosing span; empty for roots.
	ParentID string `json:"parent_id,omitempty"`
	// Name identifies the operation ("surface", "attr-deep", "match").
	Name string `json:"name"`
	// Labels carries low-cardinality span context (attr, label,
	// interface, detail).
	Labels map[string]string `json:"labels,omitempty"`
	// StartNS is the span start, nanoseconds since tracer creation.
	StartNS int64 `json:"start_ns"`
	// WallNS is the real elapsed time.
	WallNS int64 `json:"wall_ns"`
	// VirtualNS is the simulated time attributed to the span (search
	// engine / source pool virtual clocks), when known.
	VirtualNS int64 `json:"virtual_ns,omitempty"`
	// Queries is the number of substrate queries attributed to the
	// span, when known.
	Queries int `json:"queries,omitempty"`
}

// DefTraceRetention is how many distinct traces a tracer retains in its
// per-trace store before evicting the oldest (SetTraceRetention
// overrides it).
const DefTraceRetention = 512

// Tracer records spans, optionally streaming each finished span as one
// NDJSON line to a writer, and retains the spans of the most recent
// traces in one FIFO store that every reader (Records, TotalsByName,
// TraceRecords, Tree) reads. All methods are safe for concurrent use
// and nil-safe, so instrumented code can call through a nil *Tracer at
// the cost of a branch.
type Tracer struct {
	epoch  time.Time
	idBase uint32
	idCtr  atomic.Uint64

	mu         sync.Mutex
	enc        *json.Encoder
	traces     map[string][]SpanRecord
	traceOrder []string // FIFO for eviction
	maxTraces  int
	// inflight tracks root spans (trace identity, no parent) that have
	// started but not Ended, keyed by span ID — the flight recorder's
	// "what was live when the anomaly hit" view. Values are immutable
	// snapshots, so reading them races with nothing.
	inflight map[string]InFlightRoot
}

// InFlightRoot is a root span that has started but not yet finished —
// a request or build caught mid-flight by a diagnostic bundle.
type InFlightRoot struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Name    string `json:"name"`
	// StartedAtNS is the wall-clock start, nanoseconds since the Unix
	// epoch; RunningNS how long it had been running when snapshotted.
	StartedAtNS int64 `json:"started_at_ns"`
	RunningNS   int64 `json:"running_ns"`
}

// NewTracer returns a tracer. If w is non-nil every finished span is
// written to it as one JSON object per line; the spans of the
// DefTraceRetention most recent traces are also retained in memory.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{
		epoch:     time.Now(),
		traces:    map[string][]SpanRecord{},
		maxTraces: DefTraceRetention,
	}
	t.idBase = uint32(t.epoch.UnixNano())
	if w != nil {
		t.enc = json.NewEncoder(w)
	}
	return t
}

// SetTraceRetention bounds the per-trace store to the n most recent
// traces (older ones are evicted FIFO). n <= 0 disables retention
// entirely: spans still stream to the writer, but every reader sees
// none.
func (t *Tracer) SetTraceRetention(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.maxTraces = n
	t.mu.Unlock()
}

// newID mints a process-unique hex ID (per-tracer random base plus an
// atomic counter).
func (t *Tracer) newID() string {
	return fmt.Sprintf("%08x%08x", t.idBase, uint32(t.idCtr.Add(1)))
}

// Span is an in-flight operation started by a Tracer. Methods on a
// nil *Span no-op. Spans are pooled: a *Span must not be used after
// End (contexts built with WithSpan stay valid — they capture the
// immutable trace identity, not the live span).
type Span struct {
	tracer  *Tracer
	rec     SpanRecord
	started time.Time

	mu    sync.Mutex
	ended bool
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

// start initializes a pooled span with the given identity.
func (t *Tracer) start(name, traceID, spanID, parentID string) *Span {
	now := time.Now()
	s := spanPool.Get().(*Span)
	s.tracer = t
	s.started = now
	s.ended = false
	s.rec = SpanRecord{
		TraceID:  traceID,
		SpanID:   spanID,
		ParentID: parentID,
		Name:     name,
		StartNS:  now.Sub(t.epoch).Nanoseconds(),
	}
	if parentID == "" {
		t.mu.Lock()
		if t.inflight == nil {
			t.inflight = map[string]InFlightRoot{}
		}
		t.inflight[spanID] = InFlightRoot{
			TraceID:     traceID,
			SpanID:      spanID,
			Name:        name,
			StartedAtNS: now.UnixNano(),
		}
		t.mu.Unlock()
	}
	return s
}

// StartRoot mints a new trace and starts its root span.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, t.newID(), t.newID(), "")
}

// StartChild starts a span in the parent's trace, linked to it. A nil
// parent yields a fresh root instead, so call sites need no special
// cases.
func (t *Tracer) StartChild(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	if parent == nil {
		return t.StartRoot(name)
	}
	return t.start(name, parent.TraceID(), t.newID(), parent.SpanID())
}

// TraceID returns the span's trace ID; nil-safe.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.rec.TraceID
}

// SpanID returns the span's ID within its trace; nil-safe.
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.rec.SpanID
}

// Label attaches a key/value to the span and returns it for chaining.
// Empty values are dropped.
func (s *Span) Label(k, v string) *Span {
	if s == nil || v == "" {
		return s
	}
	s.mu.Lock()
	if s.rec.Labels == nil {
		s.rec.Labels = map[string]string{}
	}
	s.rec.Labels[k] = v
	s.mu.Unlock()
	return s
}

// AddVirtual attributes simulated time to the span.
func (s *Span) AddVirtual(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.VirtualNS += d.Nanoseconds()
	s.mu.Unlock()
}

// AddQueries attributes substrate queries to the span.
func (s *Span) AddQueries(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Queries += n
	s.mu.Unlock()
}

// End finishes the span, hands its record to the tracer, and returns
// the span to the pool. A second End no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.rec.WallNS = time.Since(s.started).Nanoseconds()
	rec := s.rec
	// The record (with its label map) is handed off; the pooled span
	// must not retain a reference.
	s.rec = SpanRecord{}
	tracer := s.tracer
	s.tracer = nil
	s.mu.Unlock()
	tracer.emit(rec)
	spanPool.Put(s)
}

func (t *Tracer) emit(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rec.ParentID == "" {
		delete(t.inflight, rec.SpanID)
	}
	if t.maxTraces > 0 {
		if _, ok := t.traces[rec.TraceID]; !ok {
			if len(t.traceOrder) >= t.maxTraces {
				delete(t.traces, t.traceOrder[0])
				t.traceOrder = t.traceOrder[1:]
			}
			t.traceOrder = append(t.traceOrder, rec.TraceID)
		}
		t.traces[rec.TraceID] = append(t.traces[rec.TraceID], rec)
	}
	if t.enc != nil {
		// Encode errors are deliberately swallowed: tracing is
		// best-effort and must never fail the pipeline.
		_ = t.enc.Encode(rec)
	}
}

// InFlightRoots snapshots the root spans that have started but not yet
// Ended, oldest first, with RunningNS filled in as of the call.
func (t *Tracer) InFlightRoots() []InFlightRoot {
	if t == nil {
		return nil
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	out := make([]InFlightRoot, 0, len(t.inflight))
	for _, r := range t.inflight {
		r.RunningNS = now - r.StartedAtNS
		out = append(out, r)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartedAtNS < out[j].StartedAtNS })
	return out
}

// Records returns a copy of every retained span: trace by trace, oldest
// retained trace first, each trace's spans in emission order. A fresh
// tracer that has run one traced build therefore returns all of that
// build's spans.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, id := range t.traceOrder {
		n += len(t.traces[id])
	}
	out := make([]SpanRecord, 0, n)
	for _, id := range t.traceOrder {
		out = append(out, t.traces[id]...)
	}
	return out
}

// TraceRecords returns a copy of the finished spans of one trace, in
// emission order (children before their parents, since a span is
// emitted at End). Returns nil for an unknown or evicted trace.
func (t *Tracer) TraceRecords(traceID string) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.traces[traceID]
	if recs == nil {
		return nil
	}
	out := make([]SpanRecord, len(recs))
	copy(out, recs)
	return out
}

// SpanNode is one span in a reconstructed trace tree.
type SpanNode struct {
	SpanRecord
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree reconstructs the span tree of one trace: roots (spans whose
// parent is absent or empty) in start order, each with its children in
// start order. Returns nil for an unknown trace.
func (t *Tracer) Tree(traceID string) []*SpanNode {
	recs := t.TraceRecords(traceID)
	if recs == nil {
		return nil
	}
	nodes := make(map[string]*SpanNode, len(recs))
	all := make([]*SpanNode, 0, len(recs))
	for _, r := range recs {
		n := &SpanNode{SpanRecord: r}
		all = append(all, n)
		nodes[r.SpanID] = n
	}
	var roots []*SpanNode
	for _, n := range all {
		if p := nodes[n.ParentID]; n.ParentID != "" && p != nil && p != n {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	byStart := func(ns []*SpanNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartNS < ns[j].StartNS })
	}
	byStart(roots)
	for _, n := range all {
		byStart(n.Children)
	}
	return roots
}

// Totals aggregates the retained spans per span name.
type Totals struct {
	Name    string
	Spans   int
	Wall    time.Duration
	Virtual time.Duration
	Queries int
}

// TotalsByName sums wall/virtual durations and query counts per span
// name over the retained traces, sorted by name — the per-component
// totals the Figure-8 overhead report is checked against.
func (t *Tracer) TotalsByName() []Totals {
	if t == nil {
		return nil
	}
	byName := map[string]*Totals{}
	for _, r := range t.Records() {
		tot := byName[r.Name]
		if tot == nil {
			tot = &Totals{Name: r.Name}
			byName[r.Name] = tot
		}
		tot.Spans++
		tot.Wall += time.Duration(r.WallNS)
		tot.Virtual += time.Duration(r.VirtualNS)
		tot.Queries += r.Queries
	}
	out := make([]Totals, 0, len(byName))
	for _, tot := range byName {
		out = append(out, *tot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
