package eval

import (
	"context"
	"fmt"
	"sort"

	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/stats"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
	iq "webiq/internal/webiq"
)

// RunConfig configures an evaluation: which domains, how many seeded
// repetitions, and what to measure.
type RunConfig struct {
	// Domains are the paper (kb) domain keys to evaluate; nil means all
	// five.
	Domains []string
	// Scenarios are synthetic sweep domains (internal/synth) evaluated
	// alongside the paper ones.
	Scenarios []*synth.Scenario
	// Runs is the number of repetitions; run i uses seed Seed+i.
	// Defaults to 1.
	Runs int
	// Seed is the base seed.
	Seed int64
	// FaultProfile optionally injects the named resilience profile into
	// every run's backends.
	FaultProfile string
	// Tau is the matcher clustering threshold (paper default 0.1).
	Tau float64
	// Workers sizes the acquisition and matcher worker pools
	// (0 = sequential).
	Workers int
	// Obs, when set, receives webiq_eval_* gauges for the aggregate of
	// each metric component.
	Obs *obs.Registry
	// Progress, when set, is called once per evaluated domain run.
	Progress func(run int, domain string)
}

// DomainResult is one domain's scores within one run.
type DomainResult struct {
	Domain    string `json:"domain"`
	Synthetic bool   `json:"synthetic,omitempty"`
	// TraceID is the run's root trace: every ledger decision behind
	// these numbers carries it.
	TraceID string                        `json:"trace_id"`
	Values  map[string]map[string]float64 `json:"values"`
}

// RunResult is one seeded repetition: per-domain scores plus the pooled
// (micro-averaged) scores across all domains of the run.
type RunResult struct {
	Run     int                           `json:"run"`
	Seed    int64                         `json:"seed"`
	Domains []DomainResult                `json:"domains"`
	Pooled  map[string]map[string]float64 `json:"pooled"`
}

// Aggregate is the mean and population stddev of one metric component
// across runs.
type Aggregate struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
}

// Result is a full evaluation: every run plus per-metric aggregates of
// the pooled scores across runs.
type Result struct {
	Runs       []RunResult                     `json:"runs"`
	Aggregates map[string]map[string]Aggregate `json:"aggregates"`
}

// metrics is the metric set of every evaluation: the three acquisition
// stages, the final acquired-instance quality, matcher merge accuracy,
// and degradation counts. Metric names key every result map, so they
// must be distinct.
var metrics = []Metric{
	StageMetric{Stage: "surface"},
	StageMetric{Stage: "attr-surface"},
	StageMetric{Stage: "attr-deep"},
	AcquiredMetric{},
	MatchMetric{},
	DegradationMetric{},
}

// Run executes the evaluation. Each run rebuilds the corpus, datasets,
// and deep sources from its own seed, runs acquisition and matching per
// domain with a fresh ledger and a root trace span, and scores every
// metric. Pipeline behavior is identical to cmd/webiq with
// the same seed — evaluation only observes.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	if cfg.Tau == 0 {
		cfg.Tau = 0.1
	}
	paper, err := paperDomains(cfg.Domains)
	if err != nil {
		return nil, err
	}
	var profile *resilience.Profile
	if cfg.FaultProfile != "" {
		p, err := resilience.ProfileByName(cfg.FaultProfile)
		if err != nil {
			return nil, err
		}
		profile = &p
	}

	res := &Result{}
	for i := 0; i < cfg.Runs; i++ {
		rr, err := oneRun(&cfg, paper, profile, i, cfg.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, *rr)
	}
	res.Aggregates = aggregate(res.Runs)
	emitObs(cfg.Obs, res.Aggregates)
	return res, nil
}

// oneRun evaluates every domain once at the given seed.
func oneRun(cfg *RunConfig, paper []*kb.Domain, profile *resilience.Profile, run int, seed int64) (*RunResult, error) {
	world := synth.World{Seed: seed, Domains: paper, Scenarios: cfg.Scenarios}
	engine := world.Corpus()

	rr := &RunResult{Run: run, Seed: seed}
	perMetric := map[string][]map[string]float64{}

	evalDomain := func(dom *kb.Domain, synthetic bool) {
		if cfg.Progress != nil {
			cfg.Progress(run, dom.Key)
		}
		dr := evalOne(cfg, world, engine, dom, profile, synthetic)
		rr.Domains = append(rr.Domains, dr)
		for name, vals := range dr.Values {
			perMetric[name] = append(perMetric[name], vals)
		}
	}
	for _, dom := range paper {
		evalDomain(dom, false)
	}
	for _, sc := range cfg.Scenarios {
		evalDomain(sc.Domain, true)
	}

	rr.Pooled = map[string]map[string]float64{}
	for _, m := range metrics {
		rr.Pooled[m.Name()] = m.Pool(perMetric[m.Name()])
	}
	return rr, nil
}

// evalOne runs the full pipeline on one domain of the world and scores
// it.
func evalOne(cfg *RunConfig, world synth.World, engine *surfaceweb.Engine, dom *kb.Domain, profile *resilience.Profile, synthetic bool) DomainResult {
	ds := world.Dataset(dom)
	set := BuildSet(ds, dom, synthetic)
	pool := world.Pool(ds)

	iqCfg := iq.DefaultConfig()
	iqCfg.Parallelism = cfg.Workers
	se := surfaceweb.NewCachedEngine(engine, surfaceweb.DefaultCacheShards)
	acq := iq.NewPipeline(se, pool, iqCfg, iq.AllComponents())
	if profile != nil {
		acq.SetFallible(iq.FaultClients(*profile, world.Seed, se, pool.Source))
	}

	ledger := obs.NewLedger(nil)
	acq.SetLedger(ledger)
	tracer := obs.NewTracer(nil)
	acq.SetSpanTracer(tracer)
	root := tracer.StartRoot("eval/" + dom.Key)
	traceID := root.TraceID()
	ctx := obs.WithSpan(context.Background(), root)

	rep := acq.AcquireAllCtx(ctx, ds)

	mm := matcher.New(matcher.Config{Alpha: 0.6, Beta: 0.4, Threshold: cfg.Tau, Workers: cfg.Workers})
	mm.SetLedger(ledger)
	match := mm.Match(ds)
	root.End()

	art := &Artifacts{
		Set:     set,
		Dataset: ds,
		Report:  rep,
		Ledger:  ledger,
		Match:   match,
		K:       iqCfg.K,
		TraceID: traceID,
	}
	dr := DomainResult{
		Domain:    dom.Key,
		Synthetic: synthetic,
		TraceID:   art.TraceID,
		Values:    map[string]map[string]float64{},
	}
	for _, m := range metrics {
		dr.Values[m.Name()] = m.Compute(art)
	}
	return dr
}

// paperDomains resolves kb domain keys (nil → all five paper domains).
func paperDomains(keys []string) ([]*kb.Domain, error) {
	if keys == nil {
		return kb.Domains(), nil
	}
	var out []*kb.Domain
	for _, k := range keys {
		d := kb.DomainByKey(k)
		if d == nil {
			return nil, fmt.Errorf("eval: unknown domain %q", k)
		}
		out = append(out, d)
	}
	return out, nil
}

// aggregate computes mean/stddev of every pooled component across runs.
func aggregate(runs []RunResult) map[string]map[string]Aggregate {
	out := map[string]map[string]Aggregate{}
	for _, m := range metrics {
		name := m.Name()
		comps := map[string][]float64{}
		for _, rr := range runs {
			for comp, v := range rr.Pooled[name] {
				comps[comp] = append(comps[comp], v)
			}
		}
		agg := map[string]Aggregate{}
		for comp, xs := range comps {
			mean, std := stats.MeanStd(xs)
			agg[comp] = Aggregate{Mean: mean, Stddev: std}
		}
		out[name] = agg
	}
	return out
}

// emitObs publishes the aggregate means as webiq_eval_* gauges:
// webiq_eval_<component>{metric="<name>"}. Ratio components only —
// counts stay in the JSON report.
func emitObs(reg *obs.Registry, aggs map[string]map[string]Aggregate) {
	if reg == nil {
		return
	}
	vecs := map[string]*obs.GaugeVec{}
	names := make([]string, 0, len(aggs))
	for name := range aggs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		comps := make([]string, 0, len(aggs[name]))
		for comp := range aggs[name] {
			comps = append(comps, comp)
		}
		sort.Strings(comps)
		for _, comp := range comps {
			vec := vecs[comp]
			if vec == nil {
				vec = reg.GaugeVec("webiq_eval_"+metricSafe(comp),
					"Evaluation aggregate (mean across runs) of the "+comp+" component.",
					"metric")
				vecs[comp] = vec
			}
			vec.With(name).Set(aggs[name][comp].Mean)
		}
	}
}

// metricSafe maps component names onto Prometheus metric name charset.
func metricSafe(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
