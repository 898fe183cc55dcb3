package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPMiddleware(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	h := m.WrapFunc("demo", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("fail") != "" {
			http.Error(w, "nope", http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/demo", nil))
		if rec.Code != 200 {
			t.Fatalf("status = %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/demo?fail=1", nil))
	if rec.Code != 404 {
		t.Fatalf("status = %d", rec.Code)
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
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
}

func TestHTTPMiddlewareNil(t *testing.T) {
	var m *HTTPMetrics
	called := false
	h := m.WrapFunc("demo", func(w http.ResponseWriter, req *http.Request) { called = true })
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if !called {
		t.Fatal("nil middleware must pass through")
	}
}

func TestHTTPMiddlewareTracing(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	tr := NewTracer(nil)
	m.SetTracer(tr)
	var innerTrace string
	h := m.WrapFunc("demo", func(w http.ResponseWriter, req *http.Request) {
		innerTrace = TraceIDFrom(req.Context())
		if req.URL.Query().Get("boom") != "" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/demo", nil))
	traceID := rec.Header().Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID response header")
	}
	if innerTrace != traceID {
		t.Errorf("handler saw trace %q, header says %q", innerTrace, traceID)
	}
	tree := tr.Tree(traceID)
	if len(tree) != 1 || tree[0].Name != "http" {
		t.Fatalf("trace tree = %+v, want single http root", tree)
	}
	if tree[0].Labels["route"] != "demo" || tree[0].Labels["status"] != "200" {
		t.Errorf("root labels = %v", tree[0].Labels)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/demo?boom=1", nil))
	if rec.Code != 500 {
		t.Fatalf("status = %d", rec.Code)
	}
	tree = tr.Tree(rec.Header().Get("X-Trace-ID"))
	if len(tree) != 1 || tree[0].Labels["status"] != "500" {
		t.Errorf("5xx trace tree = %+v", tree)
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`webiq_http_requests_total{route="demo",class="2xx"} 1`,
		`webiq_http_requests_total{route="demo",class="5xx"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRouteSummaries(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	h := m.WrapFunc("demo", func(w http.ResponseWriter, req *http.Request) { w.Write([]byte("ok")) })
	m.WrapFunc("idle", func(w http.ResponseWriter, req *http.Request) {}) // wrapped, never served
	for i := 0; i < 20; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/demo", nil))
	}
	sums := m.RouteSummaries()
	s, ok := sums["demo"]
	if !ok || s.Count != 20 {
		t.Fatalf("summaries = %+v, want demo with count 20", sums)
	}
	if s.P50 <= 0 || s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not monotone positive: %+v", s)
	}
	if _, ok := sums["idle"]; ok {
		t.Error("route with zero requests should be omitted")
	}
	var nilM *HTTPMetrics
	if nilM.RouteSummaries() != nil {
		t.Error("nil metrics summaries should be nil")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("quantile_test_seconds", "x", []float64{1, 2, 4})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	for _, v := range []float64{0.5, 1.5, 1.5, 3} {
		h.Observe(v)
	}
	// Counts: (0,1]=1, (1,2]=2, (2,4]=1; total 4. The median rank 2
	// falls in (1,2] at its midpoint.
	if got := h.Quantile(0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("q50 = %v, want 1.5", got)
	}
	if got := h.Quantile(0.25); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("q25 = %v, want 1.0", got)
	}
	// An observation beyond the last finite bound clamps high quantiles
	// to that bound.
	h.Observe(100)
	if got := h.Quantile(0.99); got != 4 {
		t.Errorf("q99 with +Inf mass = %v, want clamp to 4", got)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_handler_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_handler_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}
