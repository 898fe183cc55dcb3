// Package obs is the observability layer shared by every WebIQ
// subsystem: a dependency-free metrics registry (counters, gauges,
// histograms) with Prometheus text-format exposition and its /metrics
// handler, a span-style tracer with NDJSON export, the decision ledger,
// and the flight recorder.
//
// Every instrument is safe for concurrent use and nil-safe: methods on
// a nil *Counter, *Gauge, *Histogram, *CounterVec, *Tracer, or *Span
// are no-ops, so instrumented code pays only a nil-check branch when no
// registry or tracer is installed. Components expose an
// Instrument(*obs.Registry) (or SetObserver) hook; passing nil leaves
// them uninstrumented.
//
// Metric naming follows the Prometheus conventions:
// webiq_<subsystem>_<quantity>_<unit|total>, with low-cardinality
// labels only (component, route, decision, source, class).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricKind is the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// DefSecondsBuckets are the default histogram bucket upper bounds for
// latency-in-seconds metrics, spanning the simulated per-query
// latencies (0.1–0.5 s search, 0.3–1.5 s probes) and real HTTP times.
var DefSecondsBuckets = []float64{0.005, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; use NewRegistry.
// All methods are safe for concurrent use, and safe on a nil receiver
// (they return nil instruments, whose methods no-op).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family is one named metric with a fixed label set; each distinct
// label-value combination is a series.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // kindHistogram only

	mu     sync.Mutex
	series map[string]metric
}

type metric interface {
	write(w io.Writer, fam *family, labelValues []string)
}

// seriesKey joins label values with a separator that cannot appear in
// them unescaped (0xff is not valid UTF-8).
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// splitSeriesKey is the inverse of seriesKey.
func splitSeriesKey(key string) []string { return strings.Split(key, "\xff") }

// register returns the family with the given shape, creating it on
// first use. Re-registering the same name with a different kind or
// label arity panics: it is a programming error that would silently
// corrupt the exposition otherwise.
func (r *Registry) register(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (have %s with %d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels,
		buckets: buckets, series: map[string]metric{}}
	r.fams[name] = f
	return f
}

// get returns the series for the label values, creating it with mk on
// first use.
func (f *family) get(values []string, mk func() metric) metric {
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := mk()
	f.series[key] = m
	return m
}

// --- Counter ---

// Counter is a monotonically increasing float64. The zero value is
// ready to use; a nil *Counter no-ops.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter by v (v < 0 is ignored).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) write(w io.Writer, fam *family, labelValues []string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, renderLabels(fam.labels, labelValues), formatFloat(c.Value()))
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindCounter, nil, nil)
	return f.get(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec is a counter family with labels.
type CounterVec struct {
	fam *family
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values (one per label
// name, in order).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", v.fam.name, len(v.fam.labels), len(values)))
	}
	return v.fam.get(values, func() metric { return &Counter{} }).(*Counter)
}

// --- Gauge ---

// Gauge is a float64 that can go up and down. A nil *Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc adds one; Dec subtracts one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one from the gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(w io.Writer, fam *family, labelValues []string) {
	fmt.Fprintf(w, "%s%s %s\n", fam.name, renderLabels(fam.labels, labelValues), formatFloat(g.Value()))
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindGauge, nil, nil)
	return f.get(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct {
	fam *family
}

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values (one per label
// name, in order).
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", v.fam.name, len(v.fam.labels), len(values)))
	}
	return v.fam.get(values, func() metric { return &Gauge{} }).(*Gauge)
}

// --- Histogram ---

// Histogram counts observations in fixed buckets and tracks their sum.
// A nil *Histogram no-ops.
type Histogram struct {
	upper   []float64 // sorted upper bounds, excluding +Inf
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64
	// exemplars holds one trace exemplar per bucket (last slot = +Inf);
	// see exemplar.go.
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{
		upper:     buckets,
		counts:    make([]atomic.Uint64, len(buckets)),
		exemplars: exemplarSlots(len(buckets)),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	placed := false
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	n := h.inf.Load()
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile of the observed values by linear
// interpolation within the bucket holding the target rank — the
// standard fixed-bucket estimate, exact only at bucket boundaries.
// Observations above the last finite bound are clamped to it, and q is
// clamped into [0, 1] (q ≤ 0 gives the lower edge of the first occupied
// bucket, q ≥ 1 the upper edge of the last). Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 || math.IsNaN(q) {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, ub := range h.upper {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			lb := 0.0
			if i > 0 {
				lb = h.upper[i-1]
			}
			return lb + (ub-lb)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	// Target rank falls in the +Inf bucket: clamp to the last finite
	// bound (or the mean when there are no finite buckets).
	if len(h.upper) > 0 {
		return h.upper[len(h.upper)-1]
	}
	return h.Sum() / float64(total)
}

func (h *Histogram) write(w io.Writer, fam *family, labelValues []string) {
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name,
			renderLabels(append(fam.labels, "le"), append(labelValues, formatFloat(ub))), cum)
	}
	cum += h.inf.Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", fam.name,
		renderLabels(append(fam.labels, "le"), append(labelValues, "+Inf")), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, renderLabels(fam.labels, labelValues), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", fam.name, renderLabels(fam.labels, labelValues), cum)
}

// Histogram registers (or fetches) an unlabelled histogram with the
// given bucket upper bounds (nil means DefSecondsBuckets). Bounds must
// be sorted ascending.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefSecondsBuckets
	}
	f := r.register(name, help, kindHistogram, nil, buckets)
	return f.get(nil, func() metric { return newHistogram(f.buckets) }).(*Histogram)
}

// --- Exposition ---

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families and series in
// deterministic sorted order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			var values []string
			if k != "" || len(f.labels) > 0 {
				values = strings.Split(k, "\xff")
			}
			f.series[k].write(w, f, values)
		}
		f.mu.Unlock()
	}
}

// renderLabels renders a {name="value",...} block, or "" when empty.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects:
// integers without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
