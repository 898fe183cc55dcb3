// Package experiments reproduces the paper's evaluation: Table 1
// (dataset characteristics and instance-acquisition success rates),
// Figure 6 (matching accuracy with WebIQ and thresholding), Figure 7
// (component contributions), and Figure 8 (overhead analysis). Each
// experiment has a runner returning structured rows and a text renderer
// producing the same rows the paper reports.
package experiments

import (
	"time"

	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
	"webiq/internal/webiq"
)

// Env is a fully-wired experimental environment: the seeded synthetic
// world (the five paper domains), its Surface-Web corpus indexed once,
// and configuration for WebIQ and the matcher.
type Env struct {
	World  synth.World
	Engine *surfaceweb.Engine

	// Cache wraps Engine with the sharded query cache. Experiments that
	// report accuracy (Table 1, Figures 6–7) query through it: results
	// are identical — cached answers are the engine's answers — and
	// repeated conditions over the same dataset stop re-paying for
	// repeated queries. Figure 8 bypasses it, because its whole point is
	// charging the paper's full per-query overhead.
	Cache *surfaceweb.CachedEngine

	WebIQCfg webiq.Config
	MatchCfg matcher.Config

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

// NewEnvWithSeed builds an environment whose world is rolled from the
// given seed — corpus, datasets and Deep-Web sources alike.
func NewEnvWithSeed(seed int64) *Env {
	e := &Env{
		World:            synth.World{Seed: seed, Domains: kb.Domains()},
		WebIQCfg:         webiq.DefaultConfig(),
		MatchCfg:         matcher.DefaultConfig(),
		Thresholded:      0.1,
		MatchCostPerPair: 8 * time.Millisecond,
	}
	e.Engine = e.World.Corpus()
	e.Cache = surfaceweb.NewCachedEngine(e.Engine, surfaceweb.DefaultCacheShards)
	return e
}

// acquirer wires a WebIQ acquirer over the dataset and its Deep-Web
// sources with the given component set. Acquisition mutates the
// dataset, so every experimental condition passes its own
// e.World.Dataset. The accuracy experiments query through e.Cache;
// Figure 8 passes the raw e.Engine, so every repeated query is issued
// and charged — the accounting regime of the paper's overhead analysis.
func (e *Env) acquirer(se webiq.MeteredEngine, ds *schema.Dataset, comps webiq.Components) *webiq.Acquirer {
	return webiq.NewPipeline(se, e.World.Pool(ds), e.WebIQCfg, comps)
}

// matchF1 runs the matcher at threshold tau and scores against gold.
func (e *Env) matchF1(ds *schema.Dataset, tau float64) matcher.Metrics {
	cfg := e.MatchCfg
	cfg.Threshold = tau
	res := matcher.New(cfg).Match(ds)
	return matcher.Evaluate(res.Pairs, ds.GoldPairs())
}
