package server

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"webiq/internal/obs"
)

// serve sends one GET to s and returns the recorder.
func serve(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestRouteStatusClasses pins the request counters: every request is
// counted under its route and status class, observed once in the
// route's latency histogram, and the in-flight gauge returns to zero.
func TestRouteStatusClasses(t *testing.T) {
	s := newTestServer(t)
	s.handle("demo", admitted, func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("fail") != "" {
			http.Error(w, "nope", http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	}, "/demo")
	for i := 0; i < 3; i++ {
		if rec := serve(s, "/demo"); rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	if rec := serve(s, "/demo?fail=1"); rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}

	var sb strings.Builder
	s.Registry().WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`webiq_http_requests_total{route="demo",class="2xx"} 3`,
		`webiq_http_requests_total{route="demo",class="4xx"} 1`,
		`webiq_http_request_seconds_count{route="demo"} 4`,
		"webiq_http_in_flight 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A class counter appears on its first request, a latency series at
	// registration.
	if strings.Contains(out, `route="demo",class="5xx"`) {
		t.Error("5xx series exists without a 5xx response")
	}
	if !strings.Contains(out, `webiq_http_request_seconds_count{route="healthz"} 0`) {
		t.Error("unserved route has no latency series")
	}
}

// TestRouteTracing pins the root span: its trace ID is the X-Trace-ID
// header and the handler's context trace, and it is labelled with the
// route, the path and the status.
func TestRouteTracing(t *testing.T) {
	s := newTestServer(t)
	var innerTrace string
	s.handle("demo", admitted, func(w http.ResponseWriter, req *http.Request) {
		innerTrace = obs.TraceIDFrom(req.Context())
		if req.URL.Query().Get("boom") != "" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}, "/demo")

	rec := serve(s, "/demo")
	traceID := rec.Header().Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID response header")
	}
	if innerTrace != traceID {
		t.Errorf("handler saw trace %q, header says %q", innerTrace, traceID)
	}
	tree := s.Tracer().Tree(traceID)
	if len(tree) != 1 || tree[0].Name != "http" {
		t.Fatalf("trace tree = %+v, want single http root", tree)
	}
	if l := tree[0].Labels; l["route"] != "demo" || l["path"] != "/demo" || l["status"] != "200" {
		t.Errorf("root labels = %v", l)
	}

	rec = serve(s, "/demo?boom=1")
	if rec.Code != 500 {
		t.Fatalf("status = %d", rec.Code)
	}
	tree = s.Tracer().Tree(rec.Header().Get("X-Trace-ID"))
	if len(tree) != 1 || tree[0].Labels["status"] != "500" {
		t.Errorf("5xx trace tree = %+v", tree)
	}
}

// TestRouteSummaries pins the /stats route summaries: monotone
// p50/p95/p99 estimates, a p99 trace exemplar that resolves, and no
// entry for a route that has served nothing.
func TestRouteSummaries(t *testing.T) {
	s := newTestServer(t)
	s.handle("demo", admitted, func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("ok")) }, "/demo")
	s.handle("idle", admitted, func(http.ResponseWriter, *http.Request) {}, "/idle")
	for i := 0; i < 20; i++ {
		serve(s, "/demo")
	}
	sums := s.routeSummaries()
	sum, ok := sums["demo"]
	if !ok || sum.Count != 20 {
		t.Fatalf("summaries = %+v, want demo with count 20", sums)
	}
	if sum.P50 <= 0 || sum.P50 > sum.P95 || sum.P95 > sum.P99 {
		t.Errorf("quantiles not monotone positive: %+v", sum)
	}
	if sum.P99TraceID == "" || s.Tracer().Tree(sum.P99TraceID) == nil {
		t.Errorf("p99 exemplar %q does not resolve", sum.P99TraceID)
	}
	if _, ok := sums["idle"]; ok {
		t.Error("route with zero requests should be omitted")
	}
}

// TestRouteTable pins every registered route's class: an admitted
// route leaves a wide event and is shed once the server drains; an
// operational route leaves no wide event and stays served. Adding a
// route, or moving one between classes, fails here until the table
// says so.
func TestRouteTable(t *testing.T) {
	want := map[string]bool{ // label -> admitted
		"index":        true,
		"sources":      true,
		"source":       true,
		"unified":      true,
		"trace":        true,
		"healthz":      false,
		"readyz":       false,
		"stats":        false,
		"metrics":      false,
		"debug-flight": false,
	}
	s := newTestServer(t,
		WithAdmission(AdmissionConfig{MaxInFlight: 4, MaxQueued: 4}),
		WithFlightRecorder(obs.FlightOptions{Dir: t.TempDir(), CPUProfileDuration: -1, SampleInterval: -1}))
	defer s.Close()

	var labels []string
	for _, rt := range s.routes {
		labels = append(labels, rt.label)
		adm, ok := want[rt.label]
		if !ok {
			t.Errorf("route %q is not in the table", rt.label)
			continue
		}
		for _, path := range rt.patterns {
			before := s.Flight().EventCount()
			serve(s, path)
			events := s.Flight().EventCount() - before
			if adm && (events != 1 || s.Flight().EventsSince(0)[before].Route != rt.label) {
				t.Errorf("admitted route %q (GET %s) left %d wide events, want one of its own", rt.label, path, events)
			}
			if !adm && events != 0 {
				t.Errorf("operational route %q (GET %s) left %d wide events, want none", rt.label, path, events)
			}
		}
	}
	sort.Strings(labels)
	if len(labels) != len(want) {
		t.Errorf("registered routes %v, table has %d", labels, len(want))
	}

	s.BeginDrain()
	for _, rt := range s.routes {
		for _, path := range rt.patterns {
			rec := serve(s, path)
			shed := rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") != ""
			if shed != want[rt.label] {
				t.Errorf("route %q (GET %s) while draining: %d, Retry-After %q; admitted = %v",
					rt.label, path, rec.Code, rec.Header().Get("Retry-After"), want[rt.label])
			}
		}
	}
}
