package webiq

import (
	"time"

	"webiq/internal/deepweb"
	"webiq/internal/resilience"
)

// MeteredEngine is a search engine that also keeps the simulated
// query-cost clock the Figure-8 overhead accounting reads.
// *surfaceweb.Engine satisfies it, and so does *surfaceweb.CachedEngine,
// whose clock reads the engine it wraps.
type MeteredEngine interface {
	SearchEngine
	QueryCount() int
	VirtualTime() time.Duration
}

// NewPipeline assembles the acquisition pipeline for one domain: a
// Validator shared by Surface and AttrSurface, the three components
// over se and the domain's source pool, and the Acquirer applying the
// enabled ones, with the Figure-8 accounting read from se's and pool's
// clocks. Observers, tracers, ledgers and fault clients are installed
// on the returned Acquirer by its Set* methods.
func NewPipeline(se MeteredEngine, pool *deepweb.Pool, cfg Config, enabled Components) *Acquirer {
	v := NewValidator(se, cfg)
	acq := NewAcquirer(NewSurface(se, v, cfg), NewAttrDeep(pool, cfg), NewAttrSurface(v, cfg), enabled, cfg)
	acq.SetAccounting(
		func() (time.Duration, int) { return se.VirtualTime(), se.QueryCount() },
		func() (time.Duration, int) { return pool.VirtualTime(), pool.QueryCount() },
	)
	return acq
}

// FaultClients wires a fault profile into resilient backends. One
// injector seeded with seed drives a faulty engine over se and a faulty
// source that probes whatever source sources returns for an interface
// ID; each sits behind a resilient client (retry + circuit breaker)
// whose jitter uses the same seed. A nil se builds no engine client.
// The two results fit Acquirer.SetFallible directly.
func FaultClients(prof resilience.Profile, seed int64, se SearchEngine, sources func(ifcID string) *deepweb.Source) (*resilience.EngineClient, *resilience.SourceClient) {
	inj := resilience.NewInjector(prof, seed)
	opts := resilience.ClientOptions{Seed: seed}
	var engine *resilience.EngineClient
	if se != nil {
		engine = resilience.NewEngineClient(resilience.FaultyEngine(resilience.AdaptEngine(se), inj), opts)
	}
	return engine, resilience.NewSourceClient(resilience.FaultySource(sourceProbe(sources), inj), opts)
}
