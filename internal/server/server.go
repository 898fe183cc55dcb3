// Package server exposes the simulated Deep Web over HTTP: every
// generated source serves its query-interface form page and answers
// form submissions from its backing table, and the integrator's output
// — the unified query interface per domain — is served alongside. It
// turns the in-process simulation into something a browser (or the
// paper's crawler) could actually visit.
//
// The server serves one built world (snapshot.World): acquisition and
// matching run once per domain, offline, before the first request, as
// in the paper. New builds that world in memory and NewFromSnapshot
// loads it from a file; both boot it the same way, so every domain is
// ready from the start and no request runs the pipeline.
//
// Routes:
//
//	GET /                     index of sources
//	GET /sources              JSON source list
//	GET /source/{ifc}         the source's query interface (HTML form)
//	GET /source/{ifc}/search  form submission (query parameters f0..fN)
//	GET /unified/{domain}     unified interface over the domain (HTML)
//	GET /unified/{domain}/search?attr=L&value=V
//	                          translated query fan-out to all sources
//	GET /unified/{domain}/explain
//	                          per-attribute decision provenance (JSON)
//	GET /trace/{id}           span tree of one trace (JSON)
//	GET /healthz              liveness (always 200 once serving)
//	GET /readyz[?domain=d]    readiness; 503 once draining
//	GET /stats                substrate usage + route latency (JSON)
//	GET /metrics              Prometheus text-format metrics
//
// Every route is registered once, with its label and its class, and
// every request runs one path (route.ServeHTTP): admission on the
// admitted routes, a root trace span (X-Trace-ID response header), the
// request counters by status class, a latency histogram and an
// in-flight gauge, and the flight recorder's wide event. The substrate
// and pipeline metrics of internal/obs are exposed on /metrics. Under a
// fault profile (WithFaultProfile) the request-time deep-web probes go
// through a resilient source client, whose breaker /stats reports.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"webiq/internal/deepweb"
	"webiq/internal/htmlform"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/schema"
	"webiq/internal/snapshot"
	"webiq/internal/synth"
	"webiq/internal/translate"
	iq "webiq/internal/webiq"
)

// Server is the HTTP facade over the simulated Deep Web.
type Server struct {
	mux     *http.ServeMux
	reg     *obs.Registry
	tracer  *obs.Tracer
	startup *obs.Gauge // webiq_startup_seconds

	// routes are the registered routes (see handle); the HTTP
	// instruments are shared by all of them, the route being a label.
	routes       []*route
	httpRequests *obs.CounterVec   // webiq_http_requests_total{route,class}
	httpLatency  *obs.HistogramVec // webiq_http_request_seconds{route}
	httpInFlight *obs.Gauge        // webiq_http_in_flight

	// startupNs mirrors the startup gauge for /stats (gauges are
	// write-only); set once by RecordStartup.
	startupNs atomic.Int64

	// Admission control and fault injection (see Options); nil/zero
	// when the corresponding option is absent.
	adm       *admission
	faults    resilience.Profile
	faultSeed int64
	srcClient *resilience.SourceClient
	draining  atomic.Bool

	// Trace retention override (WithTraceRetention). Options run before
	// the tracer exists, so the value is held until boot applies it; the
	// set flag distinguishes "unset" from an explicit 0 (disable).
	traceRetention    int
	traceRetentionSet bool

	// Flight recorder (WithFlightRecorder); the options are held until
	// finish so the recorder can see the resilient client. The runtime
	// sampler exists unconditionally — /stats serves its on-demand
	// sample — but only samples in the background when the recorder is
	// on. snapInfo identifies the snapshot world, when booted from one.
	flightOpts *obs.FlightOptions
	flight     *obs.FlightRecorder
	sampler    *obs.RuntimeSampler
	snapInfo   *snapshotInfo

	// byDomain is the served world, one entry per domain. It is fixed
	// at boot, so handlers read it without locking.
	byDomain map[string]*domainState
	// degradations is the number of degradations the served world's
	// builds absorbed, summed over every domain at boot.
	degradations int
}

// domainState is one domain's slice of the served world: the
// post-acquisition dataset, the deep-web pool behind its sources, the
// translator over its unified interface, the degradations its build
// absorbed, and the unified view and explain pages, rendered at boot.
type domainState struct {
	ds           *schema.Dataset
	pool         *deepweb.Pool
	translator   *translate.Translator
	degradations []iq.Degradation
	// view and explain are the /unified/{domain} HTML and the
	// /unified/{domain}/explain JSON. The world is frozen, so they are
	// rendered once and every request writes the stored bytes.
	view, explain []byte
	// probeFailures counts request-time probes that failed terminally
	// under a fault profile.
	probeFailures atomic.Int64
}

// Option configures optional server subsystems.
type Option func(*Server)

// WithAdmission enables the bounded admission queue: up to
// cfg.MaxInFlight requests run concurrently, up to cfg.MaxQueued wait,
// and the rest are shed with 503 + Retry-After. The operational routes
// (/healthz, /readyz, /stats, /metrics, /debug/flight) bypass the queue.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.adm = newAdmission(cfg) }
}

// WithFaultProfile injects the named fault profile into the request-time
// deep-web probes: /source/{ifc}/search and the /unified/{domain}/search
// fan-out then reach the sources through a resilient source client
// (retry + circuit breaker). A probe that still fails answers 503 on the
// probe route and lists the source as unavailable in the fan-out. The
// seed drives the deterministic fault stream.
func WithFaultProfile(prof resilience.Profile, seed int64) Option {
	return func(s *Server) {
		s.faults = prof
		s.faultSeed = seed
	}
}

// WithTraceRetention bounds the tracer's per-trace FIFO store to the n
// most recent traces instead of the default obs.DefTraceRetention.
// n <= 0 disables per-trace retention: /trace/{id} then always 404s,
// while trace IDs are still minted for the X-Trace-ID header.
func WithTraceRetention(n int) Option {
	return func(s *Server) {
		s.traceRetention = n
		s.traceRetentionSet = true
	}
}

// New builds the world for seed in memory — corpus, datasets, and the
// full acquisition, matching, and unification pipeline for every domain
// (snapshot.BuildWorld) — and boots the server from it exactly as
// NewFromSnapshot boots from a file, so every domain is ready before
// the first request.
func New(seed int64, opts ...Option) (*Server, error) {
	world, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("server: build world: %w", err)
	}
	return boot(world, nil, opts)
}

// NewFromSnapshot builds the server from a pre-built world loaded from a
// snapshot file; /healthz and /stats report the world's fingerprint,
// seed, and scale. Responses are otherwise byte-identical to New with
// the snapshot's seed.
func NewFromSnapshot(world *snapshot.World, opts ...Option) (*Server, error) {
	if world == nil {
		return nil, fmt.Errorf("server: nil snapshot world")
	}
	return boot(world, &snapshotInfo{
		Fingerprint: fmt.Sprintf("%016x", world.Fingerprint),
		Seed:        world.Meta.Seed,
		Scale:       world.Meta.Scale,
	}, opts)
}

// boot installs a built world: the stored datasets, deep-web pools
// rebuilt deterministically from them, and the stored unified
// interfaces and degradations. It renders each domain's view and
// explain pages from the world, replaying its decisions into a ledger
// that lives only for that render, then wires the optional subsystems
// and the HTTP surface.
func boot(world *snapshot.World, info *snapshotInfo, opts []Option) (*Server, error) {
	s := &Server{
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		snapInfo: info,
		byDomain: map[string]*domainState{},
	}
	for _, opt := range opts {
		opt(s)
	}
	s.tracer = obs.NewTracer(nil)
	if s.traceRetentionSet {
		s.tracer.SetTraceRetention(s.traceRetention)
	}
	s.sampler = obs.NewRuntimeSampler(0, time.Second)
	ready := s.reg.GaugeVec("webiq_unified_ready", "1 when the domain's unified interface is installed.", "domain")
	s.startup = s.reg.Gauge("webiq_startup_seconds", "Wall-clock seconds from process start until the server was constructed and ready to listen.")

	sw := synth.World{Seed: world.Meta.Seed, Domains: kb.Domains()}
	for _, dom := range sw.Domains {
		ds := world.Dataset(dom.Key)
		if ds == nil {
			return nil, fmt.Errorf("server: world has no dataset for domain %q", dom.Key)
		}
		pool := sw.Pool(ds)
		pool.Instrument(s.reg)
		s.byDomain[dom.Key] = &domainState{ds: ds, pool: pool}
	}
	for _, dw := range world.Domains {
		d := s.byDomain[dw.Domain]
		if d == nil {
			return nil, fmt.Errorf("server: world for unknown domain %q", dw.Domain)
		}
		// Replay after Instrument so webiq_decisions_total counts every
		// decision of the build.
		ledger := obs.NewLedger(nil)
		ledger.Instrument(s.reg)
		for _, dec := range dw.Decisions {
			ledger.Record(dec)
		}
		var explain bytes.Buffer
		if err := encodeJSON(&explain, explainUnified(dw.Domain, dw.Unified, d.ds, ledger)); err != nil {
			return nil, fmt.Errorf("server: render explain for domain %q: %w", dw.Domain, err)
		}
		d.translator = translate.New(dw.Unified, d.ds, s.probe)
		d.degradations = dw.Degradations
		s.degradations += len(dw.Degradations)
		d.view = []byte(htmlform.Render(dw.Unified.AsInterface("unified-" + dw.Domain)))
		d.explain = explain.Bytes()
		ready.With(dw.Domain).Set(1)
	}
	for _, dom := range sw.Domains {
		if s.byDomain[dom.Key].view == nil {
			return nil, fmt.Errorf("server: world has no unified interface for domain %q", dom.Key)
		}
	}
	s.finish()
	return s, nil
}

// finish wires the optional fault client and the HTTP surface; it runs
// after the world is installed.
func (s *Server) finish() {
	if s.faults.Enabled() {
		_, s.srcClient = iq.FaultClients(s.faults, s.faultSeed, nil, s.source)
		s.srcClient.Instrument(s.reg)
	}
	s.adm.instrument(s.reg)
	s.setupFlight()

	s.httpRequests = s.reg.CounterVec("webiq_http_requests_total", "HTTP requests served, by route and status class.", "route", "class")
	s.httpLatency = s.reg.HistogramVec("webiq_http_request_seconds", "HTTP request latency in seconds, by route.", nil, "route")
	s.httpInFlight = s.reg.Gauge("webiq_http_in_flight", "HTTP requests currently in flight.")
	s.handle("index", admitted, s.handleIndex, "/")
	s.handle("sources", admitted, s.handleSources, "/sources")
	s.handle("source", admitted, s.handleSource, "/source/")
	s.handle("unified", admitted, s.handleUnified, "/unified/")
	s.handle("trace", admitted, s.handleTrace, "/trace/")
	s.handle("healthz", operational, s.handleHealthz, "/healthz")
	s.handle("readyz", operational, s.handleReadyz, "/readyz")
	s.handle("stats", operational, s.handleStats, "/stats")
	s.handle("metrics", operational, s.reg.Handler().ServeHTTP, "/metrics")
	s.handle("debug-flight", operational, s.handleFlight, "/debug/flight", "/debug/flight/")
}

// RecordStartup publishes how long process startup took, as the
// webiq_startup_seconds gauge and the startup_seconds field of /stats.
// Call it once, after construction, with the time since process start —
// the number a snapshot-backed server exists to shrink.
func (s *Server) RecordStartup(d time.Duration) {
	s.startupNs.Store(int64(d))
	s.startup.Set(d.Seconds())
}

// domainOf returns the domain key an interface ID like "airfare/if03"
// belongs to.
func domainOf(ifcID string) string {
	domain, _, _ := strings.Cut(ifcID, "/")
	return domain
}

// domainKeys returns the served domain keys, sorted.
func (s *Server) domainKeys() []string {
	keys := make([]string, 0, len(s.byDomain))
	for k := range s.byDomain {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// source returns the deep-web source behind an interface ID, or nil.
func (s *Server) source(ifcID string) *deepweb.Source {
	d := s.byDomain[domainOf(ifcID)]
	if d == nil {
		return nil
	}
	return d.pool.Source(ifcID)
}

// probe submits one form query at request time: through the resilient
// source client under a fault profile, else straight to the source.
// Every request-time probe goes through here, so it counts the probe
// against the request that issued it (countProbe).
func (s *Server) probe(ctx context.Context, ifcID, attrID, value string) (string, error) {
	countProbe(ctx)
	if s.srcClient == nil {
		src := s.source(ifcID)
		if src == nil {
			return "", resilience.ErrUnknownSource
		}
		return src.Probe(attrID, value), nil
	}
	page, err := s.srcClient.Probe(ctx, ifcID, attrID, value)
	if err != nil {
		if d := s.byDomain[domainOf(ifcID)]; d != nil {
			d.probeFailures.Add(1)
		}
	}
	return page, err
}

// BeginDrain flips the server into draining: /readyz answers 503, new
// requests are shed with 503 + Retry-After (when admission control is
// on), and queued plus in-flight requests run to completion. Call it
// before http.Server.Shutdown so load balancers stop sending traffic
// while the drain window runs.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.adm.beginDrain()
}

// Registry exposes the server's metric registry (e.g. for tests or for
// mounting extra instruments).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the server's request tracer (e.g. for tests or for
// wiring NDJSON export).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// interfaceFor resolves an interface ID like "airfare/if03" to its
// interface, or nil.
func (s *Server) interfaceFor(ifcID string) *schema.Interface {
	d := s.byDomain[domainOf(ifcID)]
	if d == nil {
		return nil
	}
	for _, ifc := range d.ds.Interfaces {
		if ifc.ID == ifcID {
			return ifc
		}
	}
	return nil
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	sl := getSlab()
	fmt.Fprintln(&sl.buf, "<html><body><h1>Simulated Deep Web</h1>")
	for _, k := range s.domainKeys() {
		fmt.Fprintf(&sl.buf, "<h2>%s</h2><ul>", k)
		for _, ifc := range s.byDomain[k].ds.Interfaces {
			fmt.Fprintf(&sl.buf, `<li><a href="/source/%s">%s</a></li>`, ifc.ID, ifc.Source)
		}
		fmt.Fprintf(&sl.buf, `</ul><p><a href="/unified/%s">unified interface</a></p>`, k)
	}
	fmt.Fprintln(&sl.buf, "</body></html>")
	sl.flush(w)
}

// sourceInfo is the JSON shape of one source in /sources.
type sourceInfo struct {
	ID         string `json:"id"`
	Domain     string `json:"domain"`
	Name       string `json:"name"`
	Attributes int    `json:"attributes"`
}

func (s *Server) handleSources(w http.ResponseWriter, _ *http.Request) {
	var out []sourceInfo
	for _, d := range s.byDomain {
		for _, ifc := range d.ds.Interfaces {
			out = append(out, sourceInfo{
				ID: ifc.ID, Domain: ifc.Domain, Name: ifc.Source,
				Attributes: len(ifc.Attributes),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, out)
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/source/")
	if ifcID, ok := strings.CutSuffix(rest, "/search"); ok {
		s.handleSearch(w, r, ifcID)
		return
	}
	ifc := s.interfaceFor(rest)
	if ifc == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	io.WriteString(w, htmlform.Render(ifc))
}

// handleSearch simulates a form submission: the first filled field f<i>
// becomes the probe (the simulator's sources evaluate one attribute at a
// time, like Attr-Deep's probing queries). A probe that fails answers
// 503: the source is unavailable, which says nothing about the value.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, ifcID string) {
	ifc := s.interfaceFor(ifcID)
	if ifc == nil || s.source(ifcID) == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	for i, a := range ifc.Attributes {
		v := r.URL.Query().Get(fmt.Sprintf("f%d", i))
		if strings.TrimSpace(v) == "" {
			continue
		}
		page, err := s.probe(r.Context(), ifcID, a.ID, v)
		if err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "<html><body><p>Error: source unavailable: %s</p></body></html>", resilience.Reason(err))
			return
		}
		io.WriteString(w, page)
		return
	}
	io.WriteString(w, "<html><body><p>Error: please fill in at least one field.</p></body></html>")
}

func (s *Server) handleUnified(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/unified/")
	if domain, ok := strings.CutSuffix(rest, "/search"); ok {
		s.handleUnifiedSearch(w, r, domain)
		return
	}
	if domain, ok := strings.CutSuffix(rest, "/explain"); ok {
		s.handleExplain(w, r, domain)
		return
	}
	d := s.byDomain[rest]
	if d == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(d.view)
}

// handleUnifiedSearch translates a unified query to every source and
// reports which answered.
func (s *Server) handleUnifiedSearch(w http.ResponseWriter, r *http.Request, domain string) {
	d := s.byDomain[domain]
	if d == nil {
		http.NotFound(w, r)
		return
	}
	attr := r.URL.Query().Get("attr")
	value := r.URL.Query().Get("value")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	results, err := d.translator.Query(r.Context(), attr, value)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, "<html><body><p>Error: %s</p></body></html>", err)
		return
	}
	ok, total := translate.Coverage(results)
	sl := getSlab()
	fmt.Fprintf(&sl.buf, "<html><body><h1>%s = %q</h1><p>%d of %d sources answered.</p><ul>",
		attr, value, ok, total)
	for _, res := range results {
		status := "no results"
		switch {
		case res.Err != nil:
			status = "unavailable"
		case res.OK:
			status = "results found"
		}
		fmt.Fprintf(&sl.buf, `<li><a href="/source/%s">%s</a>: %s</li>`, res.InterfaceID, res.InterfaceID, status)
	}
	fmt.Fprint(&sl.buf, "</ul></body></html>")
	sl.flush(w)
}

// handleTrace serves the reconstructed span tree of one trace:
// GET /trace/{id}.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/trace/")
	if id == "" {
		http.NotFound(w, r)
		return
	}
	tree := s.tracer.Tree(id)
	if tree == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, map[string]any{"trace_id": id, "spans": tree})
}

// healthzInfo is the /healthz JSON shape.
type healthzInfo struct {
	Status string `json:"status"`
	// Snapshot identifies the world when booted via -snapshot, so probes
	// (and incident bundles) can pin exactly what build was serving.
	Snapshot *snapshotInfo `json:"snapshot,omitempty"`
}

// handleHealthz is the liveness probe: the process is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, healthzInfo{Status: "ok", Snapshot: s.snapInfo})
}

// readyzInfo is the /readyz JSON shape.
type readyzInfo struct {
	Ready    bool            `json:"ready"`
	Draining bool            `json:"draining,omitempty"`
	Domains  map[string]bool `json:"domains"`
}

// handleReadyz is the readiness probe. Every domain is installed at
// boot, so the server is ready until BeginDrain. With ?domain=d the
// report narrows to d (404 for an unknown domain), for a load balancer
// that health-checks one domain.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	info := readyzInfo{Ready: !draining, Draining: draining, Domains: map[string]bool{}}
	if d := r.URL.Query().Get("domain"); d != "" {
		if s.byDomain[d] == nil {
			http.NotFound(w, r)
			return
		}
		info.Domains[d] = true
	} else {
		for k := range s.byDomain {
			info.Domains[k] = true
		}
	}
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, info)
}

// statsInfo is the /stats JSON shape. Virtual seconds are the simulated
// substrate time of the Figure-8 overhead accounting — the other half
// of the signal next to raw query counts. Routes carries the
// precomputed p50/p95/p99 latency summaries per route.
type statsInfo struct {
	// StartupSeconds is how long the process took to construct the
	// server (see RecordStartup); 0 until recorded.
	StartupSeconds     float64                 `json:"startup_seconds"`
	ProbesByPool       map[string]int          `json:"probes_by_domain"`
	ProbeVirtualByPool map[string]float64      `json:"probe_virtual_seconds_by_domain"`
	Routes             map[string]routeSummary `json:"routes"`
	// Admission is present when the bounded admission queue is on.
	Admission *admissionInfo `json:"admission,omitempty"`
	// Breakers maps backend name to circuit-breaker state when a fault
	// profile (and hence the resilient source client) is on.
	Breakers map[string]string `json:"breakers,omitempty"`
	// ProbeFailuresByDomain counts request-time probes that failed
	// after retries, under a fault profile.
	ProbeFailuresByDomain map[string]int `json:"probe_failures_by_domain,omitempty"`
	// DegradationsByDomain counts the graceful-degradation events
	// absorbed while building each domain's unified interface.
	DegradationsByDomain map[string]int `json:"degradations_by_domain,omitempty"`
	// Runtime is the current Go-runtime sample (goroutines, heap, GC
	// pause p99), refreshed at most once per second.
	Runtime obs.RuntimeSample `json:"runtime"`
	// Snapshot identifies the snapshot world, when booted via -snapshot.
	Snapshot *snapshotInfo `json:"snapshot,omitempty"`
}

// admissionInfo is the /stats view of the admission queue.
type admissionInfo struct {
	InFlight    int  `json:"in_flight"`
	Queued      int  `json:"queued"`
	MaxInFlight int  `json:"max_in_flight"`
	MaxQueued   int  `json:"max_queued"`
	Draining    bool `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	info := statsInfo{
		StartupSeconds:     time.Duration(s.startupNs.Load()).Seconds(),
		ProbesByPool:       map[string]int{},
		ProbeVirtualByPool: map[string]float64{},
		Routes:             s.routeSummaries(),
		Runtime:            s.sampler.Sample(),
		Snapshot:           s.snapInfo,
	}
	if s.adm != nil {
		inFlight, queued, capacity, queueCap, draining := s.adm.stats()
		info.Admission = &admissionInfo{
			InFlight: inFlight, Queued: queued,
			MaxInFlight: capacity, MaxQueued: queueCap,
			Draining: draining,
		}
	}
	if s.srcClient != nil {
		info.Breakers = map[string]string{"deep": s.srcClient.BreakerState().String()}
		info.ProbeFailuresByDomain = make(map[string]int, len(s.byDomain))
	}
	info.DegradationsByDomain = make(map[string]int, len(s.byDomain))
	for k, d := range s.byDomain {
		info.ProbesByPool[k] = d.pool.QueryCount()
		info.ProbeVirtualByPool[k] = d.pool.VirtualTime().Seconds()
		info.DegradationsByDomain[k] = len(d.degradations)
		if info.ProbeFailuresByDomain != nil {
			info.ProbeFailuresByDomain[k] = int(d.probeFailures.Load())
		}
	}
	writeJSON(w, info)
}

func writeJSON(w http.ResponseWriter, v any) {
	// Encode into a pooled slab and flush with a single Write, instead
	// of letting the encoder issue a ResponseWriter write per chunk.
	// Encoding before touching the ResponseWriter also means an encode
	// failure can still produce a clean 500 — nothing partial was sent.
	sl := getSlab()
	if err := encodeJSON(&sl.buf, v); err != nil {
		slabPool.Put(sl)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sl.flush(w)
}

// encodeJSON appends v to buf in the JSON form every route serves:
// two-space indent and a trailing newline.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
