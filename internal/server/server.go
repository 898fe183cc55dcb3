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
// Every route is instrumented (request counters by status class, a
// latency histogram, an in-flight gauge) and minted a root trace span
// (X-Trace-ID response header); the substrate and pipeline metrics of
// internal/obs are exposed on /metrics. Under a fault profile
// (WithFaultProfile) the request-time deep-web probes go through a
// resilient source client, whose breaker /stats reports.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"webiq/internal/cluster"
	"webiq/internal/deepweb"
	"webiq/internal/htmlform"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/schema"
	"webiq/internal/snapshot"
	"webiq/internal/surfaceweb"
	"webiq/internal/translate"
	"webiq/internal/unify"
	iq "webiq/internal/webiq"
)

// Server is the HTTP facade over the simulated Deep Web.
type Server struct {
	mux     *http.ServeMux
	engine  *surfaceweb.Engine
	reg     *obs.Registry
	tracer  *obs.Tracer
	httpm   *obs.HTTPMetrics
	startup *obs.Gauge // webiq_startup_seconds

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

	// Flight recorder (WithFlightRecorder); the config is held until
	// finish so the recorder can see the resilient client. The runtime
	// sampler exists unconditionally — /stats serves its on-demand
	// sample — but only samples in the background when the recorder is
	// on. snapInfo identifies the snapshot world, when booted from one.
	flightCfg *FlightConfig
	flight    *obs.FlightRecorder
	sampler   *obs.RuntimeSampler
	snapInfo  *snapshotInfo

	// Cluster membership (WithCluster); nil in single-node mode, which
	// keeps every response and /stats byte-identical to a build without
	// the cluster layer.
	clusterCfg *cluster.Config
	cluster    *cluster.Cluster

	// byDomain is the served world, one entry per domain. It is fixed
	// at boot, so handlers read it without locking.
	byDomain map[string]*domainState
}

// domainState is one domain's slice of the served world: the
// post-acquisition dataset, the deep-web pool behind its sources, and
// the unified interface with its translator, provenance ledger, and the
// degradations its build absorbed.
type domainState struct {
	ds           *schema.Dataset
	pool         *deepweb.Pool
	unified      *unify.UnifiedInterface
	translator   *translate.Translator
	ledger       *obs.Ledger
	degradations []iq.Degradation
	// probeFailures counts request-time probes that failed terminally
	// under a fault profile.
	probeFailures atomic.Int64
}

// Option configures optional server subsystems.
type Option func(*Server)

// WithAdmission enables the bounded admission queue: up to
// cfg.MaxInFlight requests run concurrently, up to cfg.MaxQueued wait,
// and the rest are shed with 503 + Retry-After. Operational endpoints
// (/healthz, /readyz, /metrics) bypass the queue.
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
// while span streaming and totals keep working.
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
// snapshot file: the frozen snapshot index serves as the search engine,
// and /healthz and /stats report the world's fingerprint, seed, and
// scale. Responses are byte-identical to New with the snapshot's seed.
//
// The world must stay open (not Closed) for the server's lifetime.
func NewFromSnapshot(world *snapshot.World, opts ...Option) (*Server, error) {
	if world == nil || world.Index == nil {
		return nil, fmt.Errorf("server: nil snapshot world")
	}
	return boot(world, &snapshotInfo{
		Fingerprint: fmt.Sprintf("%016x", world.Fingerprint),
		Seed:        world.Meta.Seed,
		Scale:       world.Meta.Scale,
	}, opts)
}

// boot installs a built world: the frozen index as the search engine,
// the stored datasets, deep-web pools rebuilt deterministically from
// them, and the stored unified interfaces, ledgers, and degradations.
// It then wires the optional subsystems and the HTTP surface.
func boot(world *snapshot.World, info *snapshotInfo, opts []Option) (*Server, error) {
	s := &Server{
		mux:      http.NewServeMux(),
		engine:   world.NewEngine(),
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
	s.engine.Instrument(s.reg)
	ready := s.reg.GaugeVec("webiq_unified_ready", "1 when the domain's unified interface is installed.", "domain")
	s.startup = s.reg.Gauge("webiq_startup_seconds", "Wall-clock seconds from process start until the server was constructed and ready to listen.")

	domains := kb.Domains()
	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = world.Meta.Seed
	for _, dom := range domains {
		ds := world.Dataset(dom.Key)
		if ds == nil {
			return nil, fmt.Errorf("server: world has no dataset for domain %q", dom.Key)
		}
		pool := deepweb.BuildPool(ds, dom, deepCfg)
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
		d.unified = dw.Unified
		d.translator = translate.New(dw.Unified, d.ds, s.probe)
		d.ledger = ledger
		d.degradations = dw.Degradations
		ready.With(dw.Domain).Set(1)
	}
	for _, dom := range domains {
		if s.byDomain[dom.Key].unified == nil {
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
	s.setupCluster()
	s.setupFlight()

	s.httpm = obs.NewHTTPMetrics(s.reg)
	s.httpm.SetTracer(s.tracer)
	// Operational endpoints (health, readiness, stats, metrics) bypass
	// the admission queue: they must stay reachable exactly when the
	// queue is full or draining. The flight middleware sits outermost so
	// shed requests — which never reach the metrics middleware — still
	// leave a wide event; with the recorder off it is the identity.
	adm := func(route string, h http.Handler) http.Handler {
		return s.flightWrap(route, s.adm.wrap(h))
	}
	s.mux.Handle("/", adm("index", s.httpm.WrapFunc("index", s.handleIndex)))
	s.mux.Handle("/sources", adm("sources", s.httpm.WrapFunc("sources", s.handleSources)))
	// The ownership check sits between admission and the local metrics
	// middleware: a forwarded request holds a local admission slot
	// (bounded fan-out) but is measured by the node that serves it.
	s.mux.Handle("/source/", adm("source", s.clusterWrap(domainFromSourcePath, s.httpm.WrapFunc("source", s.handleSource))))
	s.mux.Handle("/unified/", adm("unified", s.clusterWrap(domainFromUnifiedPath, s.httpm.WrapFunc("unified", s.handleUnified))))
	s.mux.Handle("/trace/", adm("trace", s.httpm.WrapFunc("trace", s.handleTrace)))
	s.mux.Handle("/healthz", s.httpm.WrapFunc("healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.httpm.WrapFunc("readyz", s.handleReadyz))
	s.mux.Handle("/stats", s.httpm.WrapFunc("stats", s.handleStats))
	// Like /stats, /cluster/stats bypasses admission: a cluster under
	// load-shed is exactly when the aggregate view matters.
	s.mux.Handle("/cluster/stats", s.httpm.WrapFunc("cluster-stats", s.handleClusterStats))
	s.mux.Handle("/metrics", s.httpm.Wrap("metrics", s.reg.Handler()))
	s.mux.Handle("/debug/flight", s.httpm.WrapFunc("debug-flight", s.handleFlight))
	s.mux.Handle("/debug/flight/", s.httpm.WrapFunc("debug-flight", s.handleFlight))
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
func (s *Server) probe(ctx context.Context, ifcID, attrID, value string) (string, error) {
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

// SetSlowLog logs requests taking at least threshold as NDJSON lines
// (with trace IDs) on w; nil w disables it.
func (s *Server) SetSlowLog(w io.Writer, threshold time.Duration) {
	s.httpm.SetSlowLog(w, threshold)
}

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
	io.WriteString(w, htmlform.Render(d.unified.AsInterface("unified-"+rest)))
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
// report narrows to d (404 for an unknown domain), which is what
// cluster peers probe.
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
	StartupSeconds       float64                     `json:"startup_seconds"`
	CorpusPages          int                         `json:"corpus_pages"`
	SearchQueries        int                         `json:"search_queries"`
	SearchVirtualSeconds float64                     `json:"search_virtual_seconds"`
	ProbesByPool         map[string]int              `json:"probes_by_domain"`
	ProbeVirtualByPool   map[string]float64          `json:"probe_virtual_seconds_by_domain"`
	Routes               map[string]obs.RouteSummary `json:"routes"`
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
	// Cluster is this node's routing view (ring owners, peer health,
	// per-peer breakers, forward counts) when cluster mode is on; absent
	// in single-node mode so the JSON stays byte-identical.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
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
	writeJSON(w, s.buildStats())
}

// buildStats assembles the /stats document (also embedded per node in
// /cluster/stats).
func (s *Server) buildStats() statsInfo {
	info := statsInfo{
		StartupSeconds:       time.Duration(s.startupNs.Load()).Seconds(),
		CorpusPages:          s.engine.NumDocs(),
		SearchQueries:        s.engine.QueryCount(),
		SearchVirtualSeconds: s.engine.VirtualTime().Seconds(),
		ProbesByPool:         map[string]int{},
		ProbeVirtualByPool:   map[string]float64{},
		Routes:               s.httpm.RouteSummaries(),
		Runtime:              s.sampler.Sample(),
		Snapshot:             s.snapInfo,
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
	if s.cluster != nil {
		cs := s.cluster.Stats(s.domainKeys())
		info.Cluster = &cs
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
	return info
}

func writeJSON(w http.ResponseWriter, v any) {
	// Encode into a pooled slab and flush with a single Write, instead
	// of letting the encoder issue a ResponseWriter write per chunk.
	// Encoding before touching the ResponseWriter also means an encode
	// failure can still produce a clean 500 — nothing partial was sent.
	sl := getSlab()
	enc := json.NewEncoder(&sl.buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		slabPool.Put(sl)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sl.flush(w)
}
