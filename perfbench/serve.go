package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webiq/internal/matcher"
	"webiq/internal/schema"
	"webiq/internal/server"
	"webiq/internal/snapshot"
	iq "webiq/internal/webiq"
)

// Latency is measured open-loop: requests arrive on a seeded Poisson
// schedule whatever the server's state and are sent over at most nproc
// keep-alive connections, so a stall delays every request queued behind
// it. Each request is timed from when it was due. Throughput is measured
// closed-loop: every connection sends its next request as soon as the
// previous one returns.
const (
	// fixedRate is the rate latency is reported at: about a fifth of
	// the closed-loop throughput on a 2-CPU machine. At half of it a slow
	// spell of a shared host saturated the server and quadrupled the
	// median in two runs of ten.
	fixedRate = 500.0
	// saturateWindows splits the closed-loop phase; the reported
	// throughput is the median of the windows', so a stall of the shared
	// machine during one window does not set it.
	saturateWindows = 3
	warmup          = time.Second
)

type route int

const (
	routeProbe route = iota
	routeFanout
	routeView
	routeExplain
)

var routeNames = [...]string{"probe", "fanout", "view", "explain"}

type request struct {
	route route
	path  string
}

// routeShare is the request mix per block of 100 requests: 50 source
// probes, 30 unified fan-out searches, 15 unified views, 5 explains.
var routeShare = [...]int{routeProbe: 50, routeFanout: 30, routeView: 15, routeExplain: 5}

// requestMix draws blocks of 100 requests until it has at least n. Each
// block holds every route's share split evenly over the domains, in a
// seeded order with seeded values, so a phase's cost does not depend on
// how many of its explains the seed happened to give the largest domain.
func requestMix(w *snapshot.World, seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	for len(out) < n {
		var block []request
		for rt, count := range routeShare {
			for i := 0; i < count; i++ {
				dw := w.Domains[i%len(w.Domains)]
				block = append(block, drawRequest(rng, w, dw, route(rt)))
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// drawRequest draws one request of the route for the domain, with its
// interface, attribute and value from the world's data.
func drawRequest(rng *rand.Rand, w *snapshot.World, dw snapshot.DomainWorld, rt route) request {
	d := dw.Domain
	switch rt {
	case routeProbe:
		ds := w.Dataset(d)
		for {
			ifc := ds.Interfaces[rng.Intn(len(ds.Interfaces))]
			if j, v, ok := pickValue(rng, ifc); ok {
				return request{rt, "/source/" + ifc.ID + "/search?f" + strconv.Itoa(j) + "=" + url.QueryEscape(v)}
			}
		}
	case routeFanout:
		for {
			ua := dw.Unified.Attributes[rng.Intn(len(dw.Unified.Attributes))]
			if len(ua.Instances) > 0 {
				v := ua.Instances[rng.Intn(len(ua.Instances))]
				return request{rt, "/unified/" + d + "/search?attr=" + url.QueryEscape(ua.Label) + "&value=" + url.QueryEscape(v)}
			}
		}
	case routeView:
		return request{rt, "/unified/" + d}
	default:
		return request{rt, "/unified/" + d + "/explain"}
	}
}

// pickValue picks an attribute of ifc that has instances (predefined or
// acquired) and one of its values.
func pickValue(rng *rand.Rand, ifc *schema.Interface) (int, string, bool) {
	var idx []int
	for j, a := range ifc.Attributes {
		if len(a.AllInstances()) > 0 {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		return 0, "", false
	}
	j := idx[rng.Intn(len(idx))]
	vals := ifc.Attributes[j].AllInstances()
	return j, vals[rng.Intn(len(vals))], true
}

var answeredRE = regexp.MustCompile(`(\d+) of (\d+) sources answered`)

// explainTotalsRE matches the top-level totals that close an explain
// document. Checking them on the tail keeps the load generator from
// decoding the whole document while later requests wait for its
// connection.
var explainTotalsRE = regexp.MustCompile(`"instances": (\d+),\s*"attributed": (\d+)\s*}\s*$`)

// checkBody checks one response body by route.
func checkBody(rt route, body []byte) error {
	switch rt {
	case routeProbe:
		if !strings.Contains(string(body), "<html") {
			return errors.New("probe: not a result page")
		}
	case routeView:
		if !strings.Contains(string(body), "<form") {
			return errors.New("view: no form")
		}
	case routeFanout:
		m := answeredRE.FindSubmatch(body)
		if m == nil {
			return errors.New("fan-out: page does not report how many sources answered")
		}
		ok, _ := strconv.Atoi(string(m[1]))
		total, _ := strconv.Atoi(string(m[2]))
		if total < 1 || ok > total {
			return fmt.Errorf("fan-out: %d of %d sources answered", ok, total)
		}
	case routeExplain:
		m := explainTotalsRE.FindSubmatch(body[max(0, len(body)-256):])
		if m == nil {
			return errors.New("explain: no instance totals")
		}
		inst, _ := strconv.Atoi(string(m[1]))
		attributed, _ := strconv.Atoi(string(m[2]))
		if inst == 0 || inst != attributed {
			return fmt.Errorf("explain: %d instances, %d attributed", inst, attributed)
		}
	}
	return nil
}

// sample is one request's timing, from when it was due.
type sample struct {
	late, lat time.Duration
	err       error
}

// phase is the outcome of running the schedule at one rate.
type phase struct {
	latMs, lateMs []float64 // failed requests count as +Inf latency
	failed        int
	backlogMax    int
	wall          time.Duration
	errs          []error
}

// loadgen sends the request mix to the server over conns connections.
type loadgen struct {
	client *http.Client
	base   string
	reqs   []request
	next   int
	conns  int
	rng    *rand.Rand
}

func (lg *loadgen) do(r request) error {
	resp, err := lg.client.Get(lg.base + r.path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", r.path, resp.StatusCode)
	}
	if err := checkBody(r.route, body); err != nil {
		return fmt.Errorf("%s: %v", r.path, err)
	}
	return nil
}

// run sends rate·dur requests on a Poisson schedule and waits for all.
func (lg *loadgen) run(rate float64, dur time.Duration) phase {
	n := int(rate * dur.Seconds())
	due := make([]time.Duration, n)
	reqs := make([]request, n)
	var t float64
	for i := range due {
		t += lg.rng.ExpFloat64() / rate
		due[i] = time.Duration(t * 1e9)
		reqs[i] = lg.reqs[lg.next%len(lg.reqs)]
		lg.next++
	}
	samples := make([]sample, n)
	var taken atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(taken.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				st := time.Now()
				err := lg.do(reqs[i])
				samples[i] = sample{late: st.Sub(at), lat: time.Since(at), err: err}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var p phase
	tick := time.NewTicker(5 * time.Millisecond)
	for running := true; running; {
		select {
		case <-done:
			running = false
		case now := <-tick.C:
			elapsed := now.Sub(start)
			dueN := sort.Search(n, func(i int) bool { return due[i] > elapsed })
			backlog := dueN - int(min(taken.Load(), int64(n)))
			if backlog > p.backlogMax {
				p.backlogMax = backlog
			}
		}
	}
	tick.Stop()
	p.wall = time.Since(start)
	for _, s := range samples {
		lat := ms(s.lat)
		if s.err != nil {
			p.failed++
			lat = math.Inf(1)
			if len(p.errs) < 3 {
				p.errs = append(p.errs, s.err)
			}
		}
		p.latMs = append(p.latMs, lat)
		p.lateMs = append(p.lateMs, ms(s.late))
	}
	return p
}

// saturate keeps every connection busy for dur and returns the phase's
// successful requests per second, with its failures in p.
func (lg *loadgen) saturate(dur time.Duration) (float64, phase) {
	var taken, ok atomic.Int64
	var mu sync.Mutex
	var p phase
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(taken.Add(1) - 1)
				if err := lg.do(lg.reqs[(lg.next+i)%len(lg.reqs)]); err != nil {
					mu.Lock()
					p.failed++
					if len(p.errs) < 3 {
						p.errs = append(p.errs, err)
					}
					mu.Unlock()
					continue
				}
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	lg.next += int(taken.Load())
	p.latMs = make([]float64, taken.Load()) // counted as attempted
	return float64(ok.Load()) / p.wall.Seconds(), p
}

// routeTimer times the server's handling of each request by route; the
// benchmark's span around its call into server.ServeHTTP.
type routeTimer struct {
	srv *server.Server
	on  atomic.Bool

	mu     sync.Mutex
	ms     [len(routeNames)][]float64
	non2xx int
}

func classify(path string) route {
	switch {
	case strings.HasPrefix(path, "/source/"):
		return routeProbe
	case strings.HasSuffix(path, "/search"):
		return routeFanout
	case strings.HasSuffix(path, "/explain"):
		return routeExplain
	default:
		return routeView
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !rt.on.Load() {
		rt.srv.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t := time.Now()
	rt.srv.ServeHTTP(sw, r)
	d := ms(time.Since(t))
	k := classify(r.URL.Path)
	rt.mu.Lock()
	rt.ms[k] = append(rt.ms[k], d)
	if sw.status < 200 || sw.status > 299 {
		rt.non2xx++
	}
	rt.mu.Unlock()
}

// deepProbes reads the server's deep-web probe total from /stats.
func deepProbes(srv *server.Server) (int, error) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st struct {
		Probes map[string]int `json:"probes_by_domain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return 0, fmt.Errorf("decode /stats: %w", err)
	}
	n := 0
	for _, v := range st.Probes {
		n += v
	}
	return n, nil
}

// serveSetup builds the world offline, serializes it, and boots a server
// from the bytes: the snapshot cold start.
type serveSetup struct {
	world           *snapshot.World
	srv             *server.Server
	build, load, nw time.Duration
}

func bootServer() (*serveSetup, error) {
	t0 := time.Now()
	w, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: paperSeed})
	if err != nil {
		return nil, err
	}
	raw, err := w.Bytes()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	lw, err := snapshot.LoadBytes(raw)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	srv, err := server.NewFromSnapshot(lw)
	if err != nil {
		return nil, err
	}
	return &serveSetup{world: lw, srv: srv, build: t1.Sub(t0), load: t2.Sub(t1), nw: time.Since(t2)}, nil
}

// worldMetrics reports the served world's acquisition cost and quality
// from its stored reports and unified interfaces; they repeat exactly
// for a seed.
func worldMetrics(w *snapshot.World, m map[string]float64, n map[string]string) error {
	var queries, probes, freeText, succeeded int
	var mm struct{ correct, predicted, gold int }
	for _, dw := range w.Domains {
		var rep iq.Report
		if err := json.Unmarshal(dw.ReportJSON, &rep); err != nil {
			return fmt.Errorf("decode %s report: %w", dw.Domain, err)
		}
		queries += rep.SurfaceQueries + rep.AttrSurfaceQueries
		probes += rep.AttrDeepQueries
		for _, o := range rep.Outcomes {
			if !o.HadInstances {
				freeText++
				if o.Success {
					succeeded++
				}
			}
		}
		gold := w.Dataset(dw.Domain).GoldPairs()
		for _, ua := range dw.Unified.Attributes {
			for i, a := range ua.Members {
				for _, b := range ua.Members[i+1:] {
					mm.predicted++
					if gold[schema.NewMatchPair(a, b)] {
						mm.correct++
					}
				}
			}
		}
		mm.gold += len(gold)
	}
	d := float64(len(w.Domains))
	m["web_queries_per_domain"] = float64(queries) / d
	m["deep_probes_per_domain"] = float64(probes) / d
	n["web_queries_per_domain"] = fmt.Sprintf("served world's build; base: %d domains", len(w.Domains))
	m["match_f1_pct"] = f1pct(matcher.Metrics{Correct: mm.correct, Predicted: mm.predicted, Gold: mm.gold})
	n["match_f1_pct"] = fmt.Sprintf("served unified interfaces; %d correct of %d predicted, %d gold pairs", mm.correct, mm.predicted, mm.gold)
	m["acq_success_pct"] = pct(float64(succeeded), float64(freeText))
	n["acq_success_pct"] = fmt.Sprintf("base: %d instance-less attributes", freeText)
	return nil
}

func runServeMixed(rc runConfig, out *outcome) error {
	var st struct{ total, build, load, nw []float64 }
	var s *serveSetup
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.world.Close()
		}
		s = nil
		runtime.GC()
		t := time.Now()
		var err error
		if s, err = bootServer(); err != nil {
			return fmt.Errorf("serve-mixed set-up: %w", err)
		}
		st.total = append(st.total, time.Since(t).Seconds())
		st.build = append(st.build, ms(s.build))
		st.load = append(st.load, ms(s.load))
		st.nw = append(st.nw, ms(s.nw))
	}
	defer s.world.Close()
	m, n := out.metrics, out.notes
	m["setup_s"] = median(st.total)
	n["setup_s"] = fmt.Sprintf("median of %.3f s: world build, snapshot encode, LoadBytes, NewFromSnapshot", st.total)
	m["snapshot.build_ms"] = median(st.build)
	m["snapshot.load_ms"] = median(st.load)
	m["server.new_ms"] = median(st.nw)
	if err := worldMetrics(s.world, m, n); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rt := &routeTimer{srv: s.srv}
	hs := &http.Server{Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{Proxy: nil, MaxConnsPerHost: rc.workers, MaxIdleConnsPerHost: rc.workers, DisableCompression: true}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		tr.CloseIdleConnections()
		<-served
	}()
	lg := &loadgen{
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		base:   "http://" + ln.Addr().String(),
		reqs:   requestMix(s.world, rc.seed, 4096),
		conns:  rc.workers,
		rng:    rand.New(rand.NewSource(rc.seed ^ 0x5e7e)),
	}
	account := func(p phase) {
		out.attempted += len(p.latMs)
		out.failed += p.failed
		for _, e := range p.errs {
			out.note("output check failed: %v", e)
		}
	}

	account(lg.run(fixedRate, warmup))
	heap := startHeapPeak()
	fixedDur := time.Duration(float64(rc.budget) * 0.5)
	rt0 := readRuntime()
	fixed := lg.run(fixedRate, fixedDur)
	var use runtimeUse
	use.add(rt0, readRuntime())
	account(fixed)
	m["latency_ms_p50"] = median(fixed.latMs)
	m["loadgen.req_ms_p99"] = percentile(fixed.latMs, 0.99)
	n["latency_ms_p50"] = fmt.Sprintf("at %.0f req/s; p99 %.2f ms; n=%d", fixedRate, m["loadgen.req_ms_p99"], len(fixed.latMs))
	m["loadgen.late_ms_p99"] = percentile(fixed.lateMs, 0.99)
	m["loadgen.backlog_max"] = float64(fixed.backlogMax)
	runtimeMetrics(m, n, use, fixed.wall, len(fixed.latMs), "req")

	if rc.trace {
		p0, err := deepProbes(s.srv)
		if err != nil {
			return err
		}
		rt.on.Store(true)
		traced := lg.run(fixedRate, fixedDur)
		rt.on.Store(false)
		account(traced)
		p1, err := deepProbes(s.srv)
		if err != nil {
			return err
		}
		for k, name := range routeNames {
			m["server."+name+".ms_p50"] = median(rt.ms[k])
			m["server."+name+".ms_p99"] = percentile(rt.ms[k], 0.99)
			n["server."+name+".ms_p99"] = fmt.Sprintf("n=%d", len(rt.ms[k]))
		}
		m["server.non2xx"] = float64(rt.non2xx)
		m["deepweb.probes"] = float64(p1-p0) / float64(len(traced.latMs))
		n["deepweb.probes"] = fmt.Sprintf("per request; base: %d requests", len(traced.latMs))
		base := median(fixed.latMs)
		m["trace.overhead_pct"] = 100 * (median(traced.latMs) - base) / base
		n["trace.overhead_pct"] = "request p50, traced vs untraced at the fixed rate"
		m["heap_peak_mb"] = heap.Stop()
		return nil
	}

	var rates []float64
	for i := 0; i < saturateWindows; i++ {
		rate, p := lg.saturate((rc.budget - fixedDur) / saturateWindows)
		account(p)
		rates = append(rates, rate)
	}
	m["heap_peak_mb"] = heap.Stop()
	m["throughput_per_s"] = median(rates)
	n["throughput_per_s"] = fmt.Sprintf("closed-loop requests per second over %d connections, median of %.0f", rc.workers, rates)
	return nil
}
