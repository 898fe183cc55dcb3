// Package experiments reproduces the paper's evaluation: Table 1
// (dataset characteristics and instance-acquisition success rates),
// Figure 6 (matching accuracy with WebIQ and thresholding), Figure 7
// (component contributions), and Figure 8 (overhead analysis). Each
// experiment has a runner returning structured rows and a text renderer
// producing the same rows the paper reports.
package experiments

import (
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/webiq"
)

// Env is a fully-wired experimental environment: the domain knowledge
// bases, a Surface-Web corpus indexed once, and configuration for the
// dataset generator, Deep-Web sources, WebIQ, and the matcher.
type Env struct {
	Domains []*kb.Domain
	Engine  *surfaceweb.Engine

	// Cache wraps Engine with the sharded query cache. Experiments that
	// report accuracy (Table 1, Figures 6–7) query through it: results
	// are identical — cached answers are the engine's answers — and
	// repeated conditions over the same dataset stop re-paying for
	// repeated queries. Figure 8 bypasses it, because its whole point is
	// charging the paper's full per-query overhead.
	Cache *surfaceweb.CachedEngine

	DataCfg   dataset.Config
	CorpusCfg surfaceweb.CorpusConfig
	DeepCfg   deepweb.Config
	WebIQCfg  webiq.Config
	MatchCfg  matcher.Config

	// Thresholded is the τ used for the "+ threshold" matcher variant
	// (the paper uses .1, roughly the average of the thresholds IceQ
	// learns across the five domains).
	Thresholded float64

	// MatchCostPerPair is the simulated matching cost charged per
	// attribute pair for the Figure-8 overhead analysis. It is
	// calibrated so per-domain matching times land in the paper's
	// 1.9–4.7 minute range on the 20-interface datasets.
	MatchCostPerPair time.Duration
}

// NewEnv builds the default environment: the five domains, the
// synthetic corpus, and paper-faithful parameters (seed 1).
func NewEnv() *Env { return NewEnvWithSeed(1) }

// NewEnvWithSeed builds an environment whose generators all use the
// given seed — corpus included, so the whole world is re-rolled.
func NewEnvWithSeed(seed int64) *Env {
	e := &Env{
		Domains:          kb.Domains(),
		DataCfg:          dataset.DefaultConfig(),
		CorpusCfg:        surfaceweb.DefaultCorpusConfig(),
		DeepCfg:          deepweb.DefaultConfig(),
		WebIQCfg:         webiq.DefaultConfig(),
		MatchCfg:         matcher.DefaultConfig(),
		Thresholded:      0.1,
		MatchCostPerPair: 8 * time.Millisecond,
	}
	e.DataCfg.Seed = seed
	e.CorpusCfg.Seed = seed
	e.DeepCfg.Seed = seed
	e.Engine = surfaceweb.NewEngine()
	surfaceweb.BuildCorpus(e.Engine, e.Domains, e.CorpusCfg)
	e.Cache = surfaceweb.NewCachedEngine(e.Engine, surfaceweb.DefaultCacheShards)
	return e
}

// freshDataset generates an unmutated dataset for one domain.
// Acquisition mutates attributes, so every experimental condition gets
// its own copy (identical by determinism).
func (e *Env) freshDataset(dom *kb.Domain) *schema.Dataset {
	return dataset.Generate(dom, e.DataCfg)
}

// acquirer wires a WebIQ acquirer for one domain dataset with the given
// component set, including accounting probes. It queries through the
// query cache, so repeats are deduplicated; Figure 8 uses
// acquirerUncached instead.
func (e *Env) acquirer(ds *schema.Dataset, dom *kb.Domain, comps webiq.Components) (*webiq.Acquirer, *deepweb.Pool) {
	return e.acquirerOn(e.Cache, ds, dom, comps)
}

// acquirerUncached wires an acquirer against the raw engine — every
// repeated query is issued and charged, the accounting regime of the
// paper's Figure-8 overhead analysis.
func (e *Env) acquirerUncached(ds *schema.Dataset, dom *kb.Domain, comps webiq.Components) (*webiq.Acquirer, *deepweb.Pool) {
	return e.acquirerOn(e.Engine, ds, dom, comps)
}

func (e *Env) acquirerOn(se webiq.MeteredEngine, ds *schema.Dataset, dom *kb.Domain, comps webiq.Components) (*webiq.Acquirer, *deepweb.Pool) {
	pool := deepweb.BuildPool(ds, dom, e.DeepCfg)
	return webiq.NewPipeline(se, pool, e.WebIQCfg, comps), pool
}

// matchF1 runs the matcher at threshold tau and scores against gold.
func (e *Env) matchF1(ds *schema.Dataset, tau float64) matcher.Metrics {
	cfg := e.MatchCfg
	cfg.Threshold = tau
	res := matcher.New(cfg).Match(ds)
	return matcher.Evaluate(res.Pairs, ds.GoldPairs())
}
