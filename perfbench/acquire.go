package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
	"webiq/internal/unify"
	iq "webiq/internal/webiq"
)

// syntheticDomains is how many synth.Sweep domains acquire-cold adds to
// the five paper domains. The sweep steps instance presence from 25% to
// 75%, which moves work between Surface discovery and Attr-Surface, and
// cycles label style and corpus noise.
const syntheticDomains = 20

// paperSeed generates the five paper domains' datasets, corpus and
// source pools: the fixed testbed of Table 1, built with the seed the
// repository's quality baseline and snapshot default use. The run's seed
// varies the synthetic sweep and the order of the builds; a per-seed
// paper testbed would move the count metrics by up to a third between
// seeds and bury a regression in input noise.
const paperSeed = 1

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median.
const setupRepeats = 3

// domainInput is one domain's generated inputs: the pristine dataset
// every build acquires into a clone of, and its deep-web source pool.
type domainInput struct {
	dom  *kb.Domain
	ds   *schema.Dataset
	pool *deepweb.Pool
}

// acquireInputs is everything an acquisition workload generates before
// it measures: the surface-web corpus and every domain's inputs.
type acquireInputs struct {
	engine                  *surfaceweb.Engine
	domains                 []domainInput
	corpus, datasets, pools time.Duration
}

func generateInputs(seed int64, nsynth int) *acquireInputs {
	paper := kb.Domains()
	scenarios := synth.Sweep(nsynth, seed)
	in := &acquireInputs{engine: surfaceweb.NewEngine()}

	t := time.Now()
	ccfg := surfaceweb.DefaultCorpusConfig()
	ccfg.Seed = paperSeed
	surfaceweb.BuildCorpus(in.engine, paper, ccfg)
	// BuildCorpus appends, so the synthetic domains share the one engine.
	for _, sc := range scenarios {
		surfaceweb.BuildCorpus(in.engine, []*kb.Domain{sc.Domain}, sc.CorpusConfig(seed))
	}
	in.corpus = time.Since(t)

	t = time.Now()
	dcfg := dataset.DefaultConfig()
	dcfg.Seed = paperSeed
	for _, d := range paper {
		in.domains = append(in.domains, domainInput{dom: d, ds: dataset.Generate(d, dcfg)})
	}
	for _, sc := range scenarios {
		in.domains = append(in.domains, domainInput{dom: sc.Domain, ds: dataset.Generate(sc.Domain, sc.DatasetConfig(seed))})
	}
	in.datasets = time.Since(t)

	t = time.Now()
	pcfg := deepweb.DefaultConfig()
	for i := range in.domains {
		pcfg.Seed = seed
		if i < len(paper) {
			pcfg.Seed = paperSeed
		}
		in.domains[i].pool = deepweb.BuildPool(in.domains[i].ds, in.domains[i].dom, pcfg)
	}
	in.pools = time.Since(t)
	return in
}

// setupTimes holds the set-up timings of every repeat.
type setupTimes struct {
	totalS, corpusMs, datasetMs, poolMs []float64
}

// repeatSetup generates the inputs setupRepeats times and keeps the last.
func repeatSetup(seed int64, nsynth int) (*acquireInputs, setupTimes) {
	var st setupTimes
	var in *acquireInputs
	for i := 0; i < setupRepeats; i++ {
		in = nil
		runtime.GC()
		t := time.Now()
		in = generateInputs(seed, nsynth)
		st.totalS = append(st.totalS, time.Since(t).Seconds())
		st.corpusMs = append(st.corpusMs, ms(in.corpus))
		st.datasetMs = append(st.datasetMs, ms(in.datasets))
		st.poolMs = append(st.poolMs, ms(in.pools))
	}
	return in, st
}

// cloneDataset copies a pristine dataset so a build can acquire into it.
func cloneDataset(ds *schema.Dataset) *schema.Dataset {
	out := *ds
	out.Interfaces = make([]*schema.Interface, len(ds.Interfaces))
	for i, ifc := range ds.Interfaces {
		c := *ifc
		c.Attributes = make([]*schema.Attribute, len(ifc.Attributes))
		for j, a := range ifc.Attributes {
			ac := *a
			ac.Instances = append([]string(nil), a.Instances...)
			ac.Acquired = nil
			c.Attributes[j] = &ac
		}
		out.Interfaces[i] = &c
	}
	return &out
}

// buildResult is one domain build's outputs and their check values.
type buildResult struct {
	wall   time.Duration
	attrs  int
	digest string
	report *iq.Report
	ledger *obs.Ledger
	match  matcher.Metrics
	// freeText counts the instance-less attributes, succeeded those that
	// reached K instances (Table 1's success rate).
	freeText, succeeded int
}

// build is one domain build: acquisition, matching and unification of
// ds, the work an integrator pays per domain. Only this work is timed;
// the digest is computed after. A nil tracer leaves tracing off.
func build(ctx context.Context, se iq.SearchEngine, pool *deepweb.Pool, ds *schema.Dataset, comps iq.Components, workers int, tracer *obs.Tracer) buildResult {
	start := time.Now()
	root := tracer.StartRoot("build")
	ctx = obs.WithSpan(ctx, root)

	cfg := iq.DefaultConfig()
	cfg.Parallelism = workers
	v := iq.NewValidator(se, cfg)
	acq := iq.NewAcquirer(iq.NewSurface(se, v, cfg), iq.NewAttrDeep(pool, cfg), iq.NewAttrSurface(v, cfg), comps, cfg)
	ledger := obs.NewLedger(nil)
	acq.SetLedger(ledger)
	acq.SetSpanTracer(tracer)
	rep := acq.AcquireAllCtx(ctx, ds)

	mcfg := matcher.DefaultConfig()
	mcfg.Workers = workers
	m := matcher.New(mcfg)
	m.SetLedger(ledger)
	m.SetSpanTracer(tracer)
	res := m.MatchCtx(ctx, ds)

	_, sp := tracer.StartSpan(ctx, "unify")
	u := unify.Build(ds, res)
	sp.End()
	root.End()

	out := buildResult{
		wall:   time.Since(start),
		attrs:  len(ds.AllAttributes()),
		digest: digest(rep, res.Pairs, u),
		report: rep,
		ledger: ledger,
		match:  matcher.Evaluate(res.Pairs, ds.GoldPairs()),
	}
	for _, o := range rep.Outcomes {
		if !o.HadInstances {
			out.freeText++
			if o.Success {
				out.succeeded++
			}
		}
	}
	return out
}

// digest hashes a build's outputs: the Report JSON, the sorted match
// pairs and the unified interface.
func digest(rep *iq.Report, pairs map[schema.MatchPair]bool, u *unify.UnifiedInterface) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(rep); err != nil {
		panic(err) // the Report is plain data; encoding cannot fail
	}
	ps := make([]string, 0, len(pairs))
	for p := range pairs {
		ps = append(ps, p.A+"\x00"+p.B)
	}
	sort.Strings(ps)
	for _, p := range ps {
		fmt.Fprintln(h, p)
	}
	if err := enc.Encode(u); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// surfaceStages times Surface's sub-stages with direct calls to the
// public Surface.Extract, webiq.RemoveOutliers and Surface.Verify on the
// attributes Surface discovery runs for (the instance-less ones). Engine
// time inside Extract and Verify is subtracted to leave their self time;
// Verify's own outlier pass is subtracted using the RemoveOutliers time
// measured on the same candidates.
func surfaceStages(acc *layerAcc, backend *surfaceweb.CachedEngine, ds *schema.Dataset, workers int) {
	cfg := iq.DefaultConfig()
	cfg.Parallelism = workers
	log := newCallLog(time.Now())
	te := &timedEngine{inner: backend, log: log}
	s := iq.NewSurface(te, iq.NewValidator(te, cfg), cfg)
	engineWithin := func(n int, t0, t1 time.Time) int64 {
		return covered(union(log.since(n)), int64(t0.Sub(log.epoch)), int64(t1.Sub(log.epoch)))
	}
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			if a.HasInstances() {
				continue
			}
			n := log.len()
			t0 := time.Now()
			cands := s.Extract(a, ifc, ds)
			t1 := time.Now()
			acc.extractSelfNs += int64(t1.Sub(t0)) - engineWithin(n, t0, t1)

			values := make([]string, len(cands))
			for i, c := range cands {
				values[i] = c.Value
			}
			t2 := time.Now()
			iq.RemoveOutliers(values, cfg)
			outlier := int64(time.Since(t2))
			acc.outlierNs += outlier

			n = log.len()
			t3 := time.Now()
			kept := s.Verify(a, cands)
			t4 := time.Now()
			acc.validateSelfNs += int64(t4.Sub(t3)) - outlier - engineWithin(n, t3, t4)

			acc.surfaceAttrs++
			acc.candidates += len(cands)
			acc.verified += len(kept)
		}
	}
}

// buildSpec is one build of a pass.
type buildSpec struct {
	name  string
	in    domainInput
	comps iq.Components
	// cache returns the query cache the build runs on: a fresh one per
	// build for cold acquisition, the domain's long-lived one for warm.
	cache func() *surfaceweb.CachedEngine
}

// acquireRun drives the passes of an acquisition workload and collects
// its measurements.
type acquireRun struct {
	rc     runConfig
	engine *surfaceweb.Engine
	out    *outcome

	ref    map[string]string // each build's digest in the run's first pass
	passes int

	// Untraced builds: timings, and each pass's throughput.
	buildMs         []float64
	passAttrs       int
	passWall        time.Duration
	passThroughputs []float64
	tracedMs        []float64

	// First measured pass: counts and quality, which repeat exactly.
	counted                 bool
	builds, queries, probes int
	match                   matcher.Metrics
	freeText, succeeded     int

	layers  *layerAcc
	rt      runtimeUse
	rtWall  time.Duration
	rtBuild int
}

func newAcquireRun(rc runConfig, engine *surfaceweb.Engine, out *outcome) *acquireRun {
	return &acquireRun{rc: rc, engine: engine, out: out, ref: map[string]string{}, layers: newLayerAcc()}
}

// pass runs every build once. A traced pass installs the timing
// decorator and span tracers and times Surface's sub-stages; measure
// false runs the pass only as the reference for the output check.
func (r *acquireRun) pass(specs []buildSpec, traced, measure bool) {
	kind := "untraced"
	if traced {
		kind = "traced"
	} else if !measure {
		kind = "warm-up"
	}
	var line strings.Builder
	fmt.Fprintf(&line, "pass %d (%s):", r.passes+1, kind)
	rt0, t0 := readRuntime(), time.Now()
	for _, sp := range specs {
		res := r.buildOne(sp, traced, measure)
		fmt.Fprintf(&line, " %s=%s", sp.name, res.digest[:8])
		r.out.attempted++
		if ref, ok := r.ref[sp.name]; !ok {
			r.ref[sp.name] = res.digest
		} else if ref != res.digest {
			r.out.failed++
			r.out.note("output check failed: %s digest %s differs from the first pass's %s", sp.name, res.digest[:8], ref[:8])
		}
	}
	if measure && !traced {
		r.passThroughputs = append(r.passThroughputs, float64(r.passAttrs)/r.passWall.Seconds())
		r.passAttrs, r.passWall = 0, 0
		r.rt.add(rt0, readRuntime())
		r.rtWall += time.Since(t0)
		r.rtBuild += len(specs)
	}
	if measure {
		r.counted = true
	}
	r.passes++
	fmt.Printf("%s [%.2f s]\n", line.String(), time.Since(t0).Seconds())
}

func (r *acquireRun) buildOne(sp buildSpec, traced, measure bool) buildResult {
	cache := sp.cache()
	ds := cloneDataset(sp.in.ds)
	var se iq.SearchEngine = cache
	var tracer *obs.Tracer
	var log *callLog
	if traced {
		tracer = obs.NewTracer(nil)
		log = newCallLog(time.Now())
		se = &timedEngine{inner: cache, log: log}
	}
	raw0, hits0, miss0 := cache.RawQueryCount(), cache.Hits(), cache.Misses()
	q0, v0 := r.engine.QueryCount(), r.engine.VirtualTime()
	p0 := sp.in.pool.QueryCount()

	res := build(context.Background(), se, sp.in.pool, ds, sp.comps, r.rc.workers, tracer)

	queries := cache.RawQueryCount() - raw0
	probes := sp.in.pool.QueryCount() - p0
	if !measure {
		return res
	}
	if !r.counted {
		r.builds++
		r.queries += queries
		r.probes += probes
		r.match.Correct += res.match.Correct
		r.match.Predicted += res.match.Predicted
		r.match.Gold += res.match.Gold
		if sp.comps != (iq.Components{}) {
			r.freeText += res.freeText
			r.succeeded += res.succeeded
		}
	}
	if !traced {
		r.buildMs = append(r.buildMs, ms(res.wall))
		r.passAttrs += res.attrs
		r.passWall += res.wall
		return res
	}
	r.tracedMs = append(r.tracedMs, ms(res.wall))
	acc := r.layers
	acc.cacheHits += cache.Hits() - hits0
	acc.cacheMisses += cache.Misses() - miss0
	acc.engineQueries += r.engine.QueryCount() - q0
	acc.engineVirtual += r.engine.VirtualTime() - v0
	acc.probes += probes
	acc.addBuild(log, tracer.Records(), res.ledger)
	if sp.comps.Surface {
		surfaceStages(acc, sp.cache(), sp.in.ds, r.rc.workers)
	}
	return res
}

// loop runs measured passes until the run's time is spent, at least two
// of them; a traced run alternates untraced and traced passes.
func (r *acquireRun) loop(specs []buildSpec) {
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < r.rc.budget; i++ {
		r.pass(specs, r.rc.trace && i%2 == 1, true)
	}
}

// finish fills the end-to-end and per-layer metrics.
func (r *acquireRun) finish(st setupTimes, heapMB float64) {
	m, n := r.out.metrics, r.out.notes
	m["setup_s"] = median(st.totalS)
	n["setup_s"] = fmt.Sprintf("median of %d set-ups", len(st.totalS))
	m["throughput_per_s"] = median(r.passThroughputs)
	n["throughput_per_s"] = fmt.Sprintf("attributes per second of build time through acquire+match+unify, median of %d passes", len(r.passThroughputs))
	m["latency_ms_p50"] = median(r.buildMs)
	m["pipeline.build_ms_p90"] = percentile(r.buildMs, 0.9)
	n["latency_ms_p50"] = fmt.Sprintf("one build; p90 %.2f ms; n=%d", m["pipeline.build_ms_p90"], len(r.buildMs))
	m["web_queries_per_domain"] = float64(r.queries) / float64(r.builds)
	m["deep_probes_per_domain"] = float64(r.probes) / float64(r.builds)
	n["web_queries_per_domain"] = fmt.Sprintf("search-engine queries before the cache; base: %d builds", r.builds)
	n["deep_probes_per_domain"] = fmt.Sprintf("base: %d builds", r.builds)
	m["match_f1_pct"] = f1pct(r.match)
	n["match_f1_pct"] = fmt.Sprintf("pooled; %d correct of %d predicted, %d gold pairs", r.match.Correct, r.match.Predicted, r.match.Gold)
	m["acq_success_pct"] = pct(float64(r.succeeded), float64(r.freeText))
	n["acq_success_pct"] = fmt.Sprintf("base: %d instance-less attributes", r.freeText)
	m["heap_peak_mb"] = heapMB

	r.layers.metrics(m, n)
	m["surfaceweb.build_corpus_ms"] = median(st.corpusMs)
	m["dataset.generate_ms"] = median(st.datasetMs)
	m["deepweb.build_pool_ms"] = median(st.poolMs)
	runtimeMetrics(m, n, r.rt, r.rtWall, r.rtBuild, "domain")
	if len(r.tracedMs) > 0 {
		untraced := mean(r.buildMs)
		m["trace.overhead_pct"] = 100 * (mean(r.tracedMs) - untraced) / untraced
		n["trace.overhead_pct"] = fmt.Sprintf("mean build, %d traced vs %d untraced", len(r.tracedMs), len(r.buildMs))
	}
}

func f1pct(mm matcher.Metrics) float64 {
	if mm.Predicted == 0 || mm.Gold == 0 || mm.Correct == 0 {
		return 0
	}
	p := float64(mm.Correct) / float64(mm.Predicted)
	r := float64(mm.Correct) / float64(mm.Gold)
	return 100 * 2 * p * r / (p + r)
}

// runtimeMetrics reports allocation and GC cost over the untraced
// measured regions, per unit of work (a domain build or a request).
func runtimeMetrics(m map[string]float64, n map[string]string, u runtimeUse, wall time.Duration, ops int, unit string) {
	if ops == 0 {
		return
	}
	if unit == "domain" {
		m["runtime.alloc_mb_per_domain"] = float64(u.allocBytes) / (1 << 20) / float64(ops)
		m["runtime.allocs_per_domain"] = float64(u.allocObjects) / float64(ops)
	} else {
		m["runtime.alloc_kb_per_req"] = float64(u.allocBytes) / (1 << 10) / float64(ops)
		m["runtime.allocs_per_req"] = float64(u.allocObjects) / float64(ops)
	}
	m["runtime.gc_cycles"] = float64(u.gcCycles) / wall.Seconds()
	n["runtime.gc_cycles"] = fmt.Sprintf("%d cycles in %.2f s untraced", u.gcCycles, wall.Seconds())
	m["runtime.gc_cpu_pct"] = pct(u.gcCPU, u.totalCPU)
}

func runAcquireCold(rc runConfig, out *outcome) error {
	in, st := repeatSetup(rc.seed, syntheticDomains)
	var specs []buildSpec
	for _, d := range in.domains {
		specs = append(specs, buildSpec{
			name:  d.dom.Key,
			in:    d,
			comps: iq.AllComponents(),
			cache: func() *surfaceweb.CachedEngine {
				return surfaceweb.NewCachedEngine(in.engine, surfaceweb.DefaultCacheShards)
			},
		})
	}
	shuffle(specs, rc.seed)
	r := newAcquireRun(rc, in.engine, out)
	heap := startHeapPeak()
	r.loop(specs)
	r.finish(st, heap.Stop())
	return nil
}

// shuffle puts a pass's builds in a seeded order.
func shuffle(specs []buildSpec, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
}

// figure7 are the component configurations of the Figure-7 ablation.
var figure7 = []struct {
	name  string
	comps iq.Components
}{
	{"baseline", iq.Components{}},
	{"surface", iq.Components{Surface: true}},
	{"surface+deep", iq.Components{Surface: true, AttrDeep: true}},
	{"all", iq.AllComponents()},
}

func runAcquireWarm(rc runConfig, out *outcome) error {
	in, st := repeatSetup(rc.seed, 0)
	var specs []buildSpec
	for _, d := range in.domains {
		cache := surfaceweb.NewCachedEngine(in.engine, surfaceweb.DefaultCacheShards)
		for _, c := range figure7 {
			specs = append(specs, buildSpec{
				name:  d.dom.Key + "/" + c.name,
				in:    d,
				comps: c.comps,
				cache: func() *surfaceweb.CachedEngine { return cache },
			})
		}
	}
	shuffle(specs, rc.seed)
	r := newAcquireRun(rc, in.engine, out)
	// The first pass fills the caches. It is set-up, and the reference
	// every measured pass's outputs must equal.
	t := time.Now()
	r.pass(specs, false, false)
	warm := time.Since(t).Seconds()
	for i := range st.totalS {
		st.totalS[i] += warm
	}
	heap := startHeapPeak()
	r.loop(specs)
	r.finish(st, heap.Stop())
	out.notes["setup_s"] += fmt.Sprintf(", each plus the %.2f s cache-filling pass", warm)
	return nil
}
