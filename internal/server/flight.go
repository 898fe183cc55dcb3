package server

import (
	"fmt"
	"net/http"
	"strings"

	"webiq/internal/obs"
	"webiq/internal/resilience"
)

// WithFlightRecorder enables the flight recorder: a ring of wide events
// (one per admitted request), periodic runtime sampling, and
// anomaly-triggered diagnostic bundles written under opts.Dir. The
// server fills in the options' Identity, Registry, Tracer and Sampler.
// With this option absent the server records nothing and every flight
// hook is free, so experiment outputs are byte-identical to a
// recorder-less build.
func WithFlightRecorder(opts obs.FlightOptions) Option {
	return func(s *Server) { s.flightOpts = &opts }
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
	if s.flightOpts == nil {
		return
	}
	opts := *s.flightOpts
	opts.Identity = map[string]string{}
	if s.snapInfo != nil {
		opts.Identity["snapshot_fingerprint"] = s.snapInfo.Fingerprint
		opts.Identity["seed"] = fmt.Sprintf("%d", s.snapInfo.Seed)
		opts.Identity["scale"] = fmt.Sprintf("%g", s.snapInfo.Scale)
	}
	opts.Registry, opts.Tracer, opts.Sampler = s.reg, s.tracer, s.sampler
	s.flight = obs.NewFlightRecorder(opts)
	s.flight.Start()

	if s.flight.Triggers().OnBreakerOpen && s.srcClient != nil {
		s.srcClient.OnBreakerTransition(func(_, to resilience.BreakerState) {
			if to == resilience.BreakerOpen {
				s.flight.Trigger("breaker-open-deep", "")
			}
		})
	}
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
			Dir:        s.flightOpts.Dir,
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
