package obs

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Handler serves the registry in Prometheus text exposition format —
// mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// HTTPMetrics holds the server-side HTTP instruments; one set is
// shared across routes (the route is a label). A nil *HTTPMetrics
// no-ops, so handlers can be wrapped unconditionally.
//
// With SetTracer installed, every wrapped request mints a root span
// ("http", labelled with route/path/status) whose trace ID is exposed
// as the X-Trace-ID response header and propagated to the handler via
// the request context — handlers derive child spans with
// Tracer.StartSpan(r.Context(), ...).
type HTTPMetrics struct {
	reg      *Registry
	requests *CounterVec // route, class
	inFlight *Gauge
	tracer   *Tracer

	mu         sync.Mutex
	routeHists map[string]*Histogram
}

// NewHTTPMetrics registers the HTTP metric families:
//
//	webiq_http_requests_total{route,class}  requests by status class
//	webiq_http_request_seconds{route}       latency histogram per route
//	webiq_http_in_flight                    requests currently served
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	if r == nil {
		return nil
	}
	return &HTTPMetrics{
		reg:        r,
		requests:   r.CounterVec("webiq_http_requests_total", "HTTP requests served, by route and status class.", "route", "class"),
		inFlight:   r.Gauge("webiq_http_in_flight", "HTTP requests currently in flight."),
		routeHists: map[string]*Histogram{},
	}
}

// SetTracer installs the tracer used to mint per-request root spans;
// nil disables request tracing.
func (m *HTTPMetrics) SetTracer(t *Tracer) {
	if m == nil {
		return
	}
	m.tracer = t
}

// histogramFor returns the per-route latency histogram; Wrap resolves
// it once per route at wiring time, not per request.
func (m *HTTPMetrics) histogramFor(route string) *Histogram {
	h := m.reg.HistogramVec("webiq_http_request_seconds",
		"HTTP request latency in seconds, by route.", nil, "route").With(route)
	m.mu.Lock()
	m.routeHists[route] = h
	m.mu.Unlock()
	return h
}

// Wrap instruments a handler under the given route label.
func (m *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	hist := m.histogramFor(route)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		m.inFlight.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var span *Span
		if m.tracer != nil {
			span = m.tracer.StartRoot("http")
			span.Label("route", route).Label("path", req.URL.Path)
			w.Header().Set("X-Trace-ID", span.TraceID())
			req = req.WithContext(WithSpan(req.Context(), span))
		}
		next.ServeHTTP(sw, req)
		elapsed := time.Since(start)
		traceID := span.TraceID()
		if span != nil {
			span.Label("status", strconv.Itoa(sw.code))
			span.End()
		}
		hist.ObserveExemplar(elapsed.Seconds(), traceID)
		m.requests.With(route, statusClass(sw.code)).Inc()
		m.inFlight.Dec()
	})
}

// WrapFunc is Wrap for http.HandlerFunc.
func (m *HTTPMetrics) WrapFunc(route string, next func(http.ResponseWriter, *http.Request)) http.Handler {
	return m.Wrap(route, http.HandlerFunc(next))
}

// RouteSummary is a precomputed latency summary for one route, derived
// from the route's fixed-bucket histogram (quantiles are linear
// interpolations within buckets — estimates, not exact order
// statistics).
type RouteSummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	// P99TraceID is a trace exemplar from the p99 region: a concrete
	// request (resolvable via /trace/{id}) behind the estimate.
	P99TraceID string `json:"p99_trace_id,omitempty"`
}

// RouteSummaries returns the latency summary of every wrapped route
// that has served at least one request.
func (m *HTTPMetrics) RouteSummaries() map[string]RouteSummary {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]RouteSummary, len(m.routeHists))
	for route, h := range m.routeHists {
		n := h.Count()
		if n == 0 {
			continue
		}
		sum := RouteSummary{
			Count: n,
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
		if ex := h.ExemplarNear(0.99); ex != nil {
			sum.P99TraceID = ex.TraceID
		}
		out[route] = sum
	}
	return out
}

// RouteP99 returns one route's p99 estimate and observation count (0, 0
// for an unknown route) — the cheap per-request check behind the flight
// recorder's p99-budget trigger.
func (m *HTTPMetrics) RouteP99(route string) (float64, uint64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	h := m.routeHists[route]
	m.mu.Unlock()
	if h == nil {
		return 0, 0
	}
	return h.Quantile(0.99), h.Count()
}

// statusWriter captures the response status code.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusClass buckets a status code into "1xx".."5xx".
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return fmt.Sprintf("%dxx", code/100)
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	fam *family
}

// HistogramVec registers (or fetches) a labelled histogram family with
// the given bucket bounds (nil means DefSecondsBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefSecondsBuckets
	}
	return &HistogramVec{fam: r.register(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	if len(values) != len(v.fam.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", v.fam.name, len(v.fam.labels), len(values)))
	}
	return v.fam.get(values, func() metric { return newHistogram(v.fam.buckets) }).(*Histogram)
}
