package server

import (
	"context"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"webiq/internal/obs"
)

// Route classes: whether a route's requests go through admission
// control and leave a wide event.
const (
	// admitted routes take an admission slot (or are shed) and, when
	// the flight recorder is on, leave one wide event per request.
	admitted = true
	// operational routes (health, readiness, stats, metrics, the flight
	// recorder's debug surface) bypass admission, so they stay reachable
	// exactly when the queue is full or draining, and leave no wide
	// event.
	operational = false
)

// route is one registered route: its label, its class, its handler,
// and its latency histogram, resolved once at registration. Its
// ServeHTTP is the whole request path.
type route struct {
	s        *Server
	label    string
	admitted bool
	patterns []string
	h        http.HandlerFunc
	hist     *obs.Histogram // webiq_http_request_seconds{route=label}
}

// handle registers one route under each of its mux patterns. The
// route's latency series exists from here on; its request counter
// series appear per status class on their first request.
func (s *Server) handle(label string, admitted bool, h http.HandlerFunc, patterns ...string) {
	rt := &route{s: s, label: label, admitted: admitted, patterns: patterns, h: h,
		hist: s.httpLatency.With(label)}
	s.routes = append(s.routes, rt)
	for _, p := range patterns {
		s.mux.Handle(p, rt)
	}
}

// ServeHTTP runs one request: on an admitted route it takes an
// admission slot or sheds, then serves through the span and the HTTP
// instruments, then records the wide event when the recorder is on.
// Shed requests get no span, X-Trace-ID, latency observation or
// request count, and queue wait is not in the latency histogram.
func (rt *route) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := rt.s
	if !rt.admitted || s.adm == nil && s.flight == nil {
		rt.serve(w, r)
		return
	}
	if s.flight == nil {
		rt.admit(w, r)
		return
	}
	start := time.Now()
	var probes atomic.Int64
	r = r.WithContext(context.WithValue(r.Context(), probeCounterKey{}, &probes))
	traceID, status, shed := rt.admit(w, r)
	rt.record(r, time.Since(start), int(probes.Load()), traceID, status, shed)
}

// admit serves the request under an admission slot, or sheds it with
// the 503 + Retry-After rejection and returns the reason.
func (rt *route) admit(w http.ResponseWriter, r *http.Request) (traceID string, status int, shed string) {
	a := rt.s.adm
	if shed = a.enter(r.Context()); shed != "" {
		a.shed(w, shed)
		return "", http.StatusServiceUnavailable, shed
	}
	defer a.release()
	traceID, status = rt.serve(w, r)
	return traceID, status, ""
}

// serve runs the handler under a root span ("http", labelled with the
// route, path and status, its trace ID in the X-Trace-ID header and the
// request context), then observes the route's latency with the trace as
// exemplar and counts the request by status class.
func (rt *route) serve(w http.ResponseWriter, r *http.Request) (traceID string, status int) {
	s := rt.s
	s.httpInFlight.Inc()
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	span := s.tracer.StartRoot("http")
	span.Label("route", rt.label).Label("path", r.URL.Path)
	traceID = span.TraceID()
	w.Header().Set("X-Trace-ID", traceID)
	rt.h(sw, r.WithContext(obs.WithSpan(r.Context(), span)))
	elapsed := time.Since(start)
	span.Label("status", strconv.Itoa(sw.code))
	span.End()
	rt.hist.ObserveExemplar(elapsed.Seconds(), traceID)
	s.httpRequests.With(rt.label, statusClass(sw.code)).Inc()
	s.httpInFlight.Dec()
	return traceID, sw.code
}

// record records an admitted request's wide event and fires the first
// trigger rule it matches.
func (rt *route) record(r *http.Request, elapsed time.Duration, probes int, traceID string, status int, shed string) {
	s := rt.s
	ev := obs.WideEvent{
		TimeNS:       time.Now().UnixNano(),
		Route:        rt.label,
		Method:       r.Method,
		Path:         r.URL.Path,
		Status:       status,
		Seconds:      elapsed.Seconds(),
		TraceID:      traceID,
		ShedReason:   shed,
		ProbeQueries: probes,
		Degradations: s.degradations,
	}
	if s.srcClient != nil {
		ev.BreakerDeep = s.srcClient.BreakerState().String()
	}
	if s.adm != nil {
		inFlight, queued, _, _, _ := s.adm.stats()
		ev.AdmInFlight, ev.AdmQueued = inFlight, queued
	}
	tc := s.flight.Triggers()
	ev.Trigger = tc.Match(ev)
	if ev.Trigger == "" && tc.P99Budget > 0 &&
		rt.hist.Count() >= tc.P99MinCount && rt.hist.Quantile(0.99) > tc.P99Budget.Seconds() {
		ev.Trigger = "p99-budget"
	}
	s.flight.Record(ev)
	if ev.Trigger != "" {
		s.flight.Trigger(ev.Trigger, ev.TraceID)
	}
}

// routeSummary is a precomputed latency summary for one route, derived
// from the route's fixed-bucket histogram (quantiles are linear
// interpolations within buckets: estimates, not exact order
// statistics).
type routeSummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
	// P99TraceID is a trace exemplar from the p99 region: a concrete
	// request (resolvable via /trace/{id}) behind the estimate.
	P99TraceID string `json:"p99_trace_id,omitempty"`
}

// routeSummaries returns the latency summary of every route that has
// served at least one request.
func (s *Server) routeSummaries() map[string]routeSummary {
	out := make(map[string]routeSummary, len(s.routes))
	for _, rt := range s.routes {
		n := rt.hist.Count()
		if n == 0 {
			continue
		}
		sum := routeSummary{
			Count: n,
			P50:   rt.hist.Quantile(0.50),
			P95:   rt.hist.Quantile(0.95),
			P99:   rt.hist.Quantile(0.99),
		}
		if ex := rt.hist.ExemplarNear(0.99); ex != nil {
			sum.P99TraceID = ex.TraceID
		}
		out[rt.label] = sum
	}
	return out
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

// statusClasses are the status-class labels of codes 100..599.
var statusClasses = [...]string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// statusClass buckets a status code into "1xx".."5xx".
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return statusClasses[code/100-1]
}
