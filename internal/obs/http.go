package obs

import (
	"fmt"
	"net/http"
)

// Handler serves the registry in Prometheus text exposition format —
// mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
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
