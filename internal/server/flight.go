package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"webiq/internal/obs"
	"webiq/internal/resilience"
)

// FlightConfig enables the flight recorder: a ring of wide events (one
// per request), periodic runtime sampling, and anomaly-triggered
// diagnostic bundles written under Dir. See obs.FlightRecorder.
type FlightConfig struct {
	// Dir is where diagnostic bundles are written (required).
	Dir string
	// Capacity is the wide-event ring size (obs.DefFlightCapacity when 0).
	Capacity int
	// Window is how much recent history a bundle includes
	// (obs.DefFlightWindow when 0).
	Window time.Duration
	// Triggers are the anomaly rules firing automatic dumps.
	Triggers obs.TriggerConfig
	// MaxBundles caps retained bundle files (16 when 0).
	MaxBundles int
	// CPUProfileDuration is the auto-captured CPU profile length
	// (500ms when 0, disabled when < 0).
	CPUProfileDuration time.Duration
	// SampleInterval is the background runtime-sampling period
	// (2s when 0, no background sampling when < 0).
	SampleInterval time.Duration
}

// WithFlightRecorder enables the flight recorder. With this option
// absent the server records nothing and every flight hook is free, so
// experiment outputs are byte-identical to a recorder-less build.
func WithFlightRecorder(cfg FlightConfig) Option {
	return func(s *Server) { s.flightCfg = &cfg }
}

// snapshotInfo is the world identity reported on /healthz, /stats, and
// in bundle identity labels when the server was booted from a snapshot.
type snapshotInfo struct {
	Fingerprint string  `json:"fingerprint"`
	Seed        int64   `json:"seed"`
	Scale       float64 `json:"scale"`
}

// setupFlight builds the recorder and wires the breaker-open trigger;
// it runs inside finish, after the resilient source client exists.
func (s *Server) setupFlight() {
	if s.flightCfg == nil {
		return
	}
	cfg := *s.flightCfg
	identity := map[string]string{}
	if s.snapInfo != nil {
		identity["snapshot_fingerprint"] = s.snapInfo.Fingerprint
		identity["seed"] = fmt.Sprintf("%d", s.snapInfo.Seed)
		identity["scale"] = fmt.Sprintf("%g", s.snapInfo.Scale)
	}
	s.flight = obs.NewFlightRecorder(obs.FlightOptions{
		Dir:                cfg.Dir,
		Capacity:           cfg.Capacity,
		Window:             cfg.Window,
		Triggers:           cfg.Triggers,
		MaxBundles:         cfg.MaxBundles,
		CPUProfileDuration: cfg.CPUProfileDuration,
		Identity:           identity,
		Registry:           s.reg,
		Tracer:             s.tracer,
		Sampler:            s.sampler,
	})
	interval := cfg.SampleInterval
	if interval == 0 {
		interval = 2 * time.Second
	}
	s.flight.Start(interval)

	if s.flight.Triggers().OnBreakerOpen && s.srcClient != nil {
		s.srcClient.OnBreakerTransition(func(_, to resilience.BreakerState) {
			if to == resilience.BreakerOpen {
				s.flight.Trigger("breaker-open-deep", "")
			}
		})
	}
}

// statusCapture records the status code written by the inner handler
// chain (the flight middleware sits outside obs.HTTPMetrics.Wrap, so it
// cannot see that layer's recorder).
type statusCapture struct {
	http.ResponseWriter
	code int
}

func (w *statusCapture) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// probeCount sums the deep-web probes served across every pool.
func (s *Server) probeCount() int {
	n := 0
	for _, d := range s.byDomain {
		n += d.pool.QueryCount()
	}
	return n
}

// degradationCount sums recorded degradations across every domain.
func (s *Server) degradationCount() int {
	n := 0
	for _, d := range s.byDomain {
		n += len(d.degradations)
	}
	return n
}

// flightWrap is the outermost middleware: it observes the whole
// request — including admission sheds, which never reach the metrics
// middleware — as one wide event, and evaluates the trigger rules.
// With the recorder disabled it is the identity function.
func (s *Server) flightWrap(route string, next http.Handler) http.Handler {
	if s.flight == nil {
		return next
	}
	tc := s.flight.Triggers()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		probeBefore := s.probeCount()
		sw := &statusCapture{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)

		ev := obs.WideEvent{
			TimeNS:       time.Now().UnixNano(),
			Route:        route,
			Method:       r.Method,
			Path:         r.URL.Path,
			Status:       sw.code,
			Seconds:      time.Since(start).Seconds(),
			TraceID:      w.Header().Get("X-Trace-ID"),
			ShedReason:   w.Header().Get("X-Shed-Reason"),
			ProbeQueries: s.probeCount() - probeBefore,
			Degradations: s.degradationCount(),
		}
		if s.srcClient != nil {
			ev.BreakerDeep = s.srcClient.BreakerState().String()
		}
		if s.adm != nil {
			inFlight, queued, _, _, _ := s.adm.stats()
			ev.AdmInFlight, ev.AdmQueued = inFlight, queued
		}
		ev.Trigger = tc.Match(ev)
		if ev.Trigger == "" && tc.P99Budget > 0 {
			if p99, n := s.httpm.RouteP99(route); n >= tc.P99MinCount && p99 > tc.P99Budget.Seconds() {
				ev.Trigger = "p99-budget"
			}
		}
		s.flight.Record(ev)
		if ev.Trigger != "" {
			s.flight.Trigger(ev.Trigger, ev.TraceID)
		}
	})
}

// flightStatus is the GET /debug/flight JSON shape.
type flightStatus struct {
	Enabled    bool             `json:"enabled"`
	Dir        string           `json:"dir,omitempty"`
	Triggers   string           `json:"triggers,omitempty"`
	WindowSecs float64          `json:"window_seconds,omitempty"`
	Events     uint64           `json:"events_recorded"`
	Bundles    []obs.BundleInfo `json:"bundles,omitempty"`
}

// handleFlight serves the flight-recorder debug surface:
//
//	GET /debug/flight                  status + bundle list
//	GET /debug/flight/snapshot         dump a bundle now, return its info
//	GET /debug/flight/bundles          bundle list (newest first)
//	GET /debug/flight/bundle/{name}    download one bundle
//
// These endpoints bypass the admission queue: an overloaded server is
// exactly when the recorder must stay reachable.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprintln(w, `{"error":"flight recorder disabled; start the server with -flight-dir"}`)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/debug/flight")
	rest = strings.TrimPrefix(rest, "/")
	switch {
	case rest == "":
		bundles, _ := s.flight.Bundles()
		writeJSON(w, flightStatus{
			Enabled:    true,
			Dir:        s.flightCfg.Dir,
			Triggers:   s.flight.Triggers().String(),
			WindowSecs: s.flight.Window().Seconds(),
			Events:     s.flight.EventCount(),
			Bundles:    bundles,
		})
	case rest == "snapshot":
		b, path, err := s.flight.Snapshot("manual", obs.TraceIDFrom(r.Context()))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{
			"file":        path,
			"reason":      b.Reason,
			"wide_events": len(b.WideEvents),
			"in_flight":   len(b.InFlight),
		})
	case rest == "bundles":
		bundles, err := s.flight.Bundles()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, bundles)
	case strings.HasPrefix(rest, "bundle/"):
		path, err := s.flight.BundlePath(strings.TrimPrefix(rest, "bundle/"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		http.ServeFile(w, r, path)
	default:
		http.NotFound(w, r)
	}
}

// Flight exposes the server's flight recorder (nil when disabled).
func (s *Server) Flight() *obs.FlightRecorder { return s.flight }

// Close releases background resources: the flight recorder and the
// runtime sampler. Safe to call on a server without a recorder, and
// idempotent.
func (s *Server) Close() {
	s.flight.Close()
	s.sampler.Stop()
}
