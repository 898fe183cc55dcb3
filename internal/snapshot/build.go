package snapshot

import (
	"context"
	"encoding/json"
	"runtime"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/unify"
	iq "webiq/internal/webiq"
)

// Meta is the snapshot's build metadata, stored as the meta section and
// cross-checked against the fixed-width header on load.
type Meta struct {
	GoVersion string   `json:"go_version"`
	Seed      int64    `json:"seed"`
	Scale     float64  `json:"scale"`
	Domains   []string `json:"domains"`
	Decisions int      `json:"decisions"`
}

// DomainWorld is everything the pipeline produced for one domain: the
// built unified interface, the acquisition report (kept as raw JSON so
// stored bytes round-trip exactly), the provenance ledger's decisions,
// and any degradations.
//
// Builds run without a tracer, so decisions carry empty trace IDs.
type DomainWorld struct {
	Domain       string                  `json:"domain"`
	Unified      *unify.UnifiedInterface `json:"unified"`
	ReportJSON   json.RawMessage         `json:"report"`
	Decisions    []obs.Decision          `json:"decisions"`
	Degradations []iq.Degradation        `json:"degradations,omitempty"`
}

// World is a fully built WebIQ universe: the generated
// (post-acquisition) datasets and the per-domain pipeline outputs, in
// kb.Domains() order throughout. The surface-web corpus the pipeline
// searched is not part of it: nothing after acquisition reads it.
type World struct {
	Meta     Meta
	Datasets []*schema.Dataset
	Domains  []DomainWorld
	// Fingerprint is the build fingerprint over (go version, seed,
	// scale) — the identity a snapshot-backed server reports on
	// /healthz and /stats so an incident bundle pins which world the
	// process was serving.
	Fingerprint uint64
}

// Close releases nothing: Load copies everything it decodes and unmaps
// the file before returning. It is kept so callers can release every
// world alike.
func (w *World) Close() error { return nil }

// Dataset returns the stored dataset for a domain key, or nil.
func (w *World) Dataset(domain string) *schema.Dataset {
	for _, ds := range w.Datasets {
		if ds.Domain == domain {
			return ds
		}
	}
	return nil
}

// RestoreLedger rebuilds a provenance ledger from stored decisions.
// Record stamps Seq = current length, so replaying in order reproduces
// the stored sequence numbers and per-attribute indexes exactly.
func RestoreLedger(decisions []obs.Decision) *obs.Ledger {
	l := obs.NewLedger(nil)
	for _, d := range decisions {
		l.Record(d)
	}
	return l
}

// BuildConfig parameterizes an offline world build.
type BuildConfig struct {
	Seed  int64
	Scale float64 // corpus size multiplier; 0 means 1 (the server's size)
}

// BuildWorld runs the full WebIQ pipeline offline — corpus, datasets,
// deep-web pools, acquisition, matching, unification for every domain —
// and returns what the pipeline produced; the corpus is dropped with
// the engine. It is the one way a world is made: a snapshot file stores
// it, and server.New boots straight from it in memory.
//
// All domains are always built: the corpus generator draws from one
// sequential stream across domains, so a subset would change every
// document after the first omitted domain.
func BuildWorld(cfg BuildConfig) (*World, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.Scale < 0 {
		return nil, errf("negative corpus scale %g", cfg.Scale)
	}
	domains := kb.Domains()
	engine := surfaceweb.NewEngine()
	ccfg := surfaceweb.DefaultCorpusConfig()
	ccfg.Seed = cfg.Seed
	if cfg.Scale != 1 {
		ccfg = ccfg.Scaled(cfg.Scale)
	}
	surfaceweb.BuildCorpus(engine, domains, ccfg)

	dataCfg := dataset.DefaultConfig()
	dataCfg.Seed = cfg.Seed
	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = cfg.Seed

	w := &World{Meta: Meta{GoVersion: runtime.Version(), Seed: cfg.Seed, Scale: cfg.Scale}}
	w.Fingerprint = fingerprint(w.Meta.GoVersion, w.Meta.Seed, w.Meta.Scale)
	for _, dom := range domains {
		ds := dataset.Generate(dom, dataCfg)
		pool := deepweb.BuildPool(ds, dom, deepCfg)

		ledger := obs.NewLedger(nil)
		acq := iq.NewPipeline(engine, pool, iq.DefaultConfig(), iq.AllComponents())
		acq.SetLedger(ledger)
		rep := acq.AcquireAllCtx(context.Background(), ds)

		m := matcher.New(matcher.DefaultConfig())
		m.SetLedger(ledger)
		res := m.Match(ds)
		u := unify.Build(ds, res)

		repJSON, err := json.Marshal(rep)
		if err != nil {
			return nil, errf("marshal report for %s: %v", dom.Key, err)
		}
		w.Datasets = append(w.Datasets, ds)
		w.Domains = append(w.Domains, DomainWorld{
			Domain:       dom.Key,
			Unified:      u,
			ReportJSON:   repJSON,
			Decisions:    ledger.Decisions(),
			Degradations: rep.Degradations,
		})
		w.Meta.Domains = append(w.Meta.Domains, dom.Key)
		w.Meta.Decisions += ledger.Len()
	}
	return w, nil
}
