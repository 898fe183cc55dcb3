package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

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
