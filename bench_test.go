package webiq_test

// Benchmarks regenerating the paper's evaluation (one per table/figure)
// plus ablations for the design choices called out in DESIGN.md. Run
// with:
//
//	go test -bench=. -benchmem
//
// Absolute timings measure this reproduction, not the paper's testbed;
// per-component simulated overhead (Figure 8) is reported via custom
// metrics (simulated-minutes, queries).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webiq/internal/deepweb"
	"webiq/internal/experiments"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/nlp"
	"webiq/internal/schema"
	"webiq/internal/snapshot"
	"webiq/internal/surfaceweb"
	iq "webiq/internal/webiq"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = experiments.NewEnv() })
	return benchEnv
}

// acquireDomain runs a full acquisition over a fresh dataset of the
// domain with the given components, returning the report. It queries
// the raw engine — the seed path every optimized variant is measured
// against.
func acquireDomain(env *experiments.Env, key string, comps iq.Components, cfg iq.Config) (*iq.Report, *schema.Dataset) {
	dom := kb.DomainByKey(key)
	ds := env.World.Dataset(dom)
	pool := env.World.Pool(ds)
	acq := iq.NewPipeline(env.Engine, pool, cfg, comps)
	return acq.AcquireAllCtx(context.Background(), ds), ds
}

// BenchmarkPipeline measures the multi-condition acquisition pipeline —
// the workload of Table 1 and Figure 7, where one domain is re-acquired
// under several component configurations — on the seed path (raw
// engine, sequential validation) and on the optimized path (sharded
// query cache shared across conditions, 8 validation workers). The
// acquired instances are identical; only the cost changes.
//
// Only acquisition is timed. Each iteration generates its datasets and
// deep-web pools (acquisition mutates the dataset, so every condition
// needs a fresh one) and builds the engine it queries with the timer
// stopped; the cached variants get a fresh CachedEngine per iteration,
// so every iteration starts cold.
func BenchmarkPipeline(b *testing.B) {
	conditions := []iq.Components{
		{Surface: true},
		{Surface: true, AttrDeep: true},
		iq.AllComponents(),
	}
	dom := kb.DomainByKey("book")
	run := func(b *testing.B, env *experiments.Env, cfg iq.Config, engine func() iq.MeteredEngine) {
		dss := make([]*schema.Dataset, len(conditions))
		pools := make([]*deepweb.Pool, len(conditions))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := range conditions {
				dss[j] = env.World.Dataset(dom)
				pools[j] = env.World.Pool(dss[j])
			}
			se := engine()
			b.StartTimer()
			for j, comps := range conditions {
				iq.NewPipeline(se, pools[j], cfg, comps).AcquireAllCtx(context.Background(), dss[j])
			}
		}
		b.StopTimer()
	}
	b.Run("seed", func(b *testing.B) {
		env := benchEnvironment(b)
		run(b, env, env.WebIQCfg, func() iq.MeteredEngine { return env.Engine })
	})
	cold := func(env *experiments.Env) func() iq.MeteredEngine {
		return func() iq.MeteredEngine {
			return surfaceweb.NewCachedEngine(env.Engine, surfaceweb.DefaultCacheShards)
		}
	}
	b.Run("cached-parallel", func(b *testing.B) {
		env := benchEnvironment(b)
		cfg := env.WebIQCfg
		cfg.Parallelism = 8
		run(b, env, cfg, cold(env))
	})
	// The parallel-N suite pins GOMAXPROCS to N and runs the optimized
	// pipeline with N validation workers, reporting the multi-core
	// scaling curve: speedup over the N=1 run of the same invocation and
	// scaling efficiency (speedup/N, as a percentage). eff% at 8 cores is
	// gated in CI so a change that serializes the hot path — a new global
	// lock, a singleflight regression — fails the bench gate even when
	// single-core ns/op stays flat.
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("parallel-%d", n), func(b *testing.B) {
			env := benchEnvironment(b)
			old := runtime.GOMAXPROCS(n)
			defer runtime.GOMAXPROCS(old)
			cfg := env.WebIQCfg
			cfg.Parallelism = n
			run(b, env, cfg, cold(env))
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if n == 1 {
				parallelBaseNs.Store(&nsPerOp)
			}
			if base := parallelBaseNs.Load(); base != nil && *base > 0 && nsPerOp > 0 {
				speedup := *base / nsPerOp
				b.ReportMetric(speedup, "speedup")
				b.ReportMetric(100*speedup/float64(n), "eff%")
			}
		})
	}
}

// parallelBaseNs carries the parallel-1 ns/op of the current
// BenchmarkPipeline invocation to the higher-N sub-benchmarks, which
// report their speedup relative to it. Runs that filter out parallel-1
// simply omit the scaling metrics.
var parallelBaseNs atomic.Pointer[float64]

// BenchmarkColdStart measures time-to-ready from nothing: a full
// rebuild (corpus generation, indexing, and the whole acquisition +
// matching + unification pipeline for every domain) versus loading the
// same world from a binary snapshot, at the server's corpus scale and
// at 10x. The snapshot stores no corpus, so a load is checksums plus
// decoding the JSON sections. The snapshot-load runs report xrebuild —
// how many times faster loading is than rebuilding in the same
// invocation — which the bench gate holds with a lower-is-worse bound,
// so a change that lets loading creep toward rebuild cost fails CI.
// Run with -benchtime 1x:
// one iteration is a full cold start. A load takes well under a tenth
// of a second, so one timed load is at the mercy of a single scheduler
// or page-cache hiccup: each snapshot-load iteration times coldLoads
// loads and reports their median as ns/op, with B/op and allocs/op
// per load.
func BenchmarkColdStart(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		b.Run(fmt.Sprintf("rebuild-%gx", scale), func(b *testing.B) {
			var last *snapshot.World
			for i := 0; i < b.N; i++ {
				w, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: 1, Scale: scale})
				if err != nil {
					b.Fatal(err)
				}
				last = w
			}
			b.StopTimer()
			coldRebuildNs.Store(scale, float64(b.Elapsed().Nanoseconds())/float64(b.N))
			// Stash the built world's bytes so the load sub-benchmark
			// does not have to rebuild it untimed.
			if _, ok := coldSnapBytes.Load(scale); !ok {
				if raw, err := last.Bytes(); err == nil {
					coldSnapBytes.Store(scale, raw)
				}
			}
		})
		b.Run(fmt.Sprintf("snapshot-load-%gx", scale), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "world.snap")
			if err := os.WriteFile(path, coldWorldBytes(b, scale), 0o644); err != nil {
				b.Fatal(err)
			}
			var ns []float64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < coldLoads; j++ {
					start := time.Now()
					if _, err := snapshot.Load(path); err != nil {
						b.Fatal(err)
					}
					ns = append(ns, float64(time.Since(start).Nanoseconds()))
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			loads := float64(len(ns))
			sort.Float64s(ns)
			median := ns[len(ns)/2]
			b.ReportMetric(median, "ns/op")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/loads, "B/op")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/loads, "allocs/op")
			if v, ok := coldRebuildNs.Load(scale); ok && median > 0 {
				b.ReportMetric(v.(float64)/median, "xrebuild")
			}
		})
	}
}

// coldLoads is how many snapshot loads one BenchmarkColdStart
// snapshot-load iteration times; the run reports their median.
const coldLoads = 7

// coldRebuildNs and coldSnapBytes carry the rebuild timing and the
// serialized world between BenchmarkColdStart sub-benchmarks (the
// parallelBaseNs pattern); runs that filter out the rebuild side just
// omit the xrebuild metric and build their own snapshot.
var (
	coldRebuildNs sync.Map // scale float64 -> ns/op float64
	coldSnapBytes sync.Map // scale float64 -> []byte
)

func coldWorldBytes(b *testing.B, scale float64) []byte {
	b.Helper()
	if raw, ok := coldSnapBytes.Load(scale); ok {
		return raw.([]byte)
	}
	w, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: 1, Scale: scale})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := w.Bytes()
	if err != nil {
		b.Fatal(err)
	}
	coldSnapBytes.Store(scale, raw)
	return raw
}

// BenchmarkTable1Acquisition regenerates Table 1's acquisition columns:
// per-domain instance acquisition with Surface and Surface+Deep.
func BenchmarkTable1Acquisition(b *testing.B) {
	env := benchEnvironment(b)
	for _, key := range []string{"airfare", "auto", "book", "job", "realestate"} {
		b.Run(key, func(b *testing.B) {
			var success float64
			for i := 0; i < b.N; i++ {
				rep, _ := acquireDomain(env, key, iq.Components{Surface: true, AttrDeep: true}, env.WebIQCfg)
				success = rep.SuccessRate()
			}
			b.ReportMetric(success, "success%")
		})
	}
}

// BenchmarkFig6Matching regenerates Figure 6: baseline vs WebIQ-enriched
// matching accuracy.
func BenchmarkFig6Matching(b *testing.B) {
	env := benchEnvironment(b)
	for _, key := range []string{"airfare", "auto", "book", "job", "realestate"} {
		b.Run(key, func(b *testing.B) {
			_, ds := acquireDomain(env, key, iq.AllComponents(), env.WebIQCfg)
			b.ResetTimer()
			var f1 float64
			for i := 0; i < b.N; i++ {
				res := matcher.New(matcher.Config{Alpha: .6, Beta: .4, Threshold: .1}).Match(ds)
				f1 = matcher.Evaluate(res.Pairs, ds.GoldPairs()).F1
			}
			b.ReportMetric(100*f1, "F1%")
		})
	}
}

// BenchmarkFig7Components regenerates Figure 7: acquisition+matching at
// each component configuration (averaged over the five domains inside
// one iteration for the "all" case; per-config sub-benchmarks).
func BenchmarkFig7Components(b *testing.B) {
	env := benchEnvironment(b)
	configs := map[string]iq.Components{
		"baseline":     {},
		"surface":      {Surface: true},
		"surface+deep": {Surface: true, AttrDeep: true},
		"all":          iq.AllComponents(),
	}
	for name, comps := range configs {
		b.Run(name, func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				_, ds := acquireDomain(env, "job", comps, env.WebIQCfg)
				res := matcher.New(matcher.DefaultConfig()).Match(ds)
				f1 = matcher.Evaluate(res.Pairs, ds.GoldPairs()).F1
			}
			b.ReportMetric(100*f1, "F1%")
		})
	}
}

// BenchmarkFig8Overhead regenerates Figure 8: the per-component
// simulated overhead of a full acquisition run, reported as custom
// metrics alongside the real wall time.
func BenchmarkFig8Overhead(b *testing.B) {
	env := benchEnvironment(b)
	for _, key := range []string{"airfare", "auto", "book", "job", "realestate"} {
		b.Run(key, func(b *testing.B) {
			var rep *iq.Report
			for i := 0; i < b.N; i++ {
				rep, _ = acquireDomain(env, key, iq.AllComponents(), env.WebIQCfg)
			}
			b.ReportMetric(rep.SurfaceTime.Minutes(), "surf-simmin")
			b.ReportMetric(rep.AttrSurfaceTime.Minutes(), "attrsurf-simmin")
			b.ReportMetric(rep.AttrDeepTime.Minutes(), "attrdeep-simmin")
			b.ReportMetric(float64(rep.SurfaceQueries+rep.AttrSurfaceQueries), "queries")
			b.ReportMetric(float64(rep.AttrDeepQueries), "probes")
		})
	}
}

// BenchmarkAblationOutlierPruning measures the ablation of the two-phase
// verification: without outlier removal, Web validation must score every
// raw candidate, inflating validation queries.
func BenchmarkAblationOutlierPruning(b *testing.B) {
	env := benchEnvironment(b)
	run := func(b *testing.B, skip bool) {
		cfg := env.WebIQCfg
		cfg.SkipOutlierRemoval = skip
		var queries int
		for i := 0; i < b.N; i++ {
			q0 := env.Engine.QueryCount()
			acquireDomain(env, "book", iq.Components{Surface: true}, cfg)
			queries = env.Engine.QueryCount() - q0
		}
		b.ReportMetric(float64(queries), "queries")
	}
	b.Run("with-outlier-removal", func(b *testing.B) { run(b, false) })
	b.Run("without-outlier-removal", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationPMIvsHits compares PMI scoring against raw hit counts
// for validation (the popularity-bias ablation).
func BenchmarkAblationPMIvsHits(b *testing.B) {
	env := benchEnvironment(b)
	run := func(b *testing.B, raw bool) {
		cfg := env.WebIQCfg
		cfg.UseRawHitCounts = raw
		var success float64
		for i := 0; i < b.N; i++ {
			rep, _ := acquireDomain(env, "airfare", iq.Components{Surface: true}, cfg)
			success = rep.SuccessRate()
		}
		b.ReportMetric(success, "success%")
	}
	b.Run("pmi", func(b *testing.B) { run(b, false) })
	b.Run("raw-hits", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationProbeBudget measures the one-third rule's probe
// savings: probing every donor value versus the capped sample.
func BenchmarkAblationProbeBudget(b *testing.B) {
	env := benchEnvironment(b)
	run := func(b *testing.B, maxProbes int) {
		cfg := env.WebIQCfg
		cfg.MaxBorrowProbes = maxProbes
		var probes float64
		for i := 0; i < b.N; i++ {
			rep, _ := acquireDomain(env, "airfare", iq.Components{Surface: true, AttrDeep: true}, cfg)
			probes = float64(rep.AttrDeepQueries)
		}
		b.ReportMetric(probes, "probes")
	}
	b.Run("one-third-rule", func(b *testing.B) { run(b, 6) })
	b.Run("probe-everything", func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblationDomainKeywords measures query narrowing: extraction
// queries with and without domain keywords.
func BenchmarkAblationDomainKeywords(b *testing.B) {
	env := benchEnvironment(b)
	run := func(b *testing.B, use bool) {
		cfg := env.WebIQCfg
		cfg.UseDomainKeywords = use
		var success float64
		for i := 0; i < b.N; i++ {
			rep, _ := acquireDomain(env, "book", iq.Components{Surface: true}, cfg)
			success = rep.SuccessRate()
		}
		b.ReportMetric(success, "success%")
	}
	b.Run("narrowed", func(b *testing.B) { run(b, true) })
	b.Run("bare-cues", func(b *testing.B) { run(b, false) })
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkPOSTagging measures the Brill-style tagger on interface
// labels.
func BenchmarkPOSTagging(b *testing.B) {
	labels := []string{
		"Departure city", "From", "Class of service", "First name or last name",
		"Depart from", "Number of passengers",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nlp.AnalyzeLabel(labels[i%len(labels)])
	}
}

// BenchmarkSearchEngine measures phrase search over the full corpus.
func BenchmarkSearchEngine(b *testing.B) {
	env := benchEnvironment(b)
	queries := []string{
		`"airlines such as"`, `"authors such as" +book`, `"make honda"`,
		`"departure cities such as" +airfare`,
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env.Engine.NumHits(queries[i%len(queries)])
	}
}

// BenchmarkMatcher measures a full clustering run on the airfare domain
// (the paper's largest).
func BenchmarkMatcher(b *testing.B) {
	env := benchEnvironment(b)
	ds := env.World.Dataset(kb.DomainByKey("airfare"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matcher.New(matcher.DefaultConfig()).Match(ds)
	}
}

// BenchmarkDeepProbe measures one source probe round trip, per probe
// outcome: a string value the table holds, a string value it lacks, an
// in-range numeric filter, and a value outside a predefined list.
func BenchmarkDeepProbe(b *testing.B) {
	env := benchEnvironment(b)
	type probeCase struct {
		name   string
		domain string
		// pick returns the attribute to probe and the value, or "" to
		// skip the attribute.
		pick func(a *schema.Attribute, c *kb.Concept) string
		want bool
	}
	cases := []probeCase{
		{"string-hit", "airfare", func(a *schema.Attribute, c *kb.Concept) string {
			if a.HasInstances() || c == nil || c.IsNumeric() {
				return ""
			}
			return c.AllInstances()[0]
		}, true},
		{"string-miss", "airfare", func(a *schema.Attribute, c *kb.Concept) string {
			if a.HasInstances() || c == nil || c.IsNumeric() {
				return ""
			}
			return "no such value"
		}, false},
		{"numeric", "auto", func(a *schema.Attribute, c *kb.Concept) string {
			if a.HasInstances() || c == nil || !c.IsNumeric() {
				return ""
			}
			return c.Numeric.Render(c.Numeric.Max)
		}, true},
		{"predefined-reject", "airfare", func(a *schema.Attribute, c *kb.Concept) string {
			if !a.HasInstances() {
				return ""
			}
			return "NotAnOption"
		}, false},
	}
	for _, pc := range cases {
		b.Run(pc.name, func(b *testing.B) {
			dom := kb.DomainByKey(pc.domain)
			ds := env.World.Dataset(dom)
			pool := env.World.Pool(ds)
			concepts := map[string]*kb.Concept{}
			for _, c := range dom.Concepts {
				concepts[c.ID] = c
			}
			var src *deepweb.Source
			var attrID, value string
			for _, a := range ds.AllAttributes() {
				v := pc.pick(a, concepts[a.ConceptID])
				s := pool.Source(a.InterfaceID)
				if v != "" && s.AcceptsPartialQueries() && deepweb.AnalyzeResponse(s.Probe(a.ID, v)) == pc.want {
					src, attrID, value = s, a.ID, v
					break
				}
			}
			if src == nil {
				b.Fatalf("%s: no attribute gives the wanted outcome", pc.domain)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src.Probe(attrID, value)
			}
		})
	}
}

// BenchmarkCorpusBuild measures constructing and indexing the synthetic
// Surface Web from scratch.
func BenchmarkCorpusBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := surfaceweb.NewEngine()
		surfaceweb.BuildCorpus(e, kb.Domains(), surfaceweb.DefaultCorpusConfig())
	}
}

// BenchmarkAblationLinkage compares clustering linkages on the enriched
// airfare dataset (the design choice behind the matcher).
func BenchmarkAblationLinkage(b *testing.B) {
	env := benchEnvironment(b)
	_, ds := acquireDomain(env, "airfare", iq.AllComponents(), env.WebIQCfg)
	gold := ds.GoldPairs()
	for _, l := range []matcher.Linkage{matcher.SingleLink, matcher.AverageLink, matcher.CompleteLink} {
		b.Run(l.String(), func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				res := matcher.New(matcher.Config{Alpha: .6, Beta: .4, Linkage: l}).Match(ds)
				f1 = matcher.Evaluate(res.Pairs, gold).F1
			}
			b.ReportMetric(100*f1, "F1%")
		})
	}
}

// BenchmarkAblationLabelOnly reruns matching with instances ignored
// (α=1, β=0) — IceQ's own comparative finding that instances greatly
// improve accuracy.
func BenchmarkAblationLabelOnly(b *testing.B) {
	env := benchEnvironment(b)
	_, ds := acquireDomain(env, "airfare", iq.AllComponents(), env.WebIQCfg)
	gold := ds.GoldPairs()
	configs := map[string]matcher.Config{
		"label-only":      {Alpha: 1, Beta: 0},
		"label+instances": {Alpha: .6, Beta: .4},
	}
	for name, cfg := range configs {
		b.Run(name, func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				res := matcher.New(cfg).Match(ds)
				f1 = matcher.Evaluate(res.Pairs, gold).F1
			}
			b.ReportMetric(100*f1, "F1%")
		})
	}
}

// BenchmarkParallelAcquisition measures the wall-clock effect of the
// concurrent Surface phase (results are identical to sequential).
func BenchmarkParallelAcquisition(b *testing.B) {
	env := benchEnvironment(b)
	for _, par := range []int{1, 4, 8} {
		cfg := env.WebIQCfg
		cfg.Parallelism = par
		b.Run(fmt.Sprintf("workers-%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				acquireDomain(env, "book", iq.Components{Surface: true}, cfg)
			}
		})
	}
}

// BenchmarkAblationSurfaceForPredef quantifies the possibility the paper
// declines "to minimize overhead": running Surface discovery for
// predefined-value attributes too. The metrics show the extra queries
// against the accuracy effect.
func BenchmarkAblationSurfaceForPredef(b *testing.B) {
	env := benchEnvironment(b)
	run := func(b *testing.B, on bool) {
		cfg := env.WebIQCfg
		cfg.SurfaceForPredef = on
		var f1 float64
		var queries int
		for i := 0; i < b.N; i++ {
			q0 := env.Engine.QueryCount()
			_, ds := acquireDomain(env, "airfare", iq.AllComponents(), cfg)
			queries = env.Engine.QueryCount() - q0
			res := matcher.New(matcher.DefaultConfig()).Match(ds)
			f1 = matcher.Evaluate(res.Pairs, ds.GoldPairs()).F1
		}
		b.ReportMetric(100*f1, "F1%")
		b.ReportMetric(float64(queries), "queries")
	}
	b.Run("paper-scheme", func(b *testing.B) { run(b, false) })
	b.Run("surface-for-predef", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationAggregation compares global clustering against
// Wise-Integrator-style greedy per-pair matching on the enriched
// airfare dataset — isolating the aggregation strategy.
func BenchmarkAblationAggregation(b *testing.B) {
	env := benchEnvironment(b)
	_, ds := acquireDomain(env, "airfare", iq.AllComponents(), env.WebIQCfg)
	gold := ds.GoldPairs()
	b.Run("clustering", func(b *testing.B) {
		var f1 float64
		for i := 0; i < b.N; i++ {
			f1 = matcher.Evaluate(matcher.New(matcher.DefaultConfig()).Match(ds).Pairs, gold).F1
		}
		b.ReportMetric(100*f1, "F1%")
	})
	b.Run("greedy-pairwise", func(b *testing.B) {
		var f1 float64
		for i := 0; i < b.N; i++ {
			f1 = matcher.Evaluate(matcher.NewGreedyPairwise(matcher.DefaultConfig()).Match(ds).Pairs, gold).F1
		}
		b.ReportMetric(100*f1, "F1%")
	})
}
