package synth

import (
	"fmt"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
)

// World is one seeded synthetic world: the Surface-Web corpus every
// domain is searched in, each domain's query interfaces, and the
// Deep-Web sources behind them. It is the one place the seed fans out
// to the generators, so every program that rebuilds a world from the
// same inputs gets the same corpus, datasets and sources.
//
// The corpus stream order is part of that: the paper domains draw from
// one generator stream, in order, so a subset or a reordering shifts
// every later document; each scenario then appends its pages from a
// stream of its own (Scenario.CorpusConfig).
type World struct {
	// Seed drives every generator.
	Seed int64
	// Scale multiplies the corpus page counts; 0 means 1.
	Scale float64
	// Domains are the paper (kb) domains, in corpus order.
	Domains []*kb.Domain
	// Scenarios are the synthetic sweep domains, built after the paper
	// ones.
	Scenarios []*Scenario
	// Interfaces is the dataset size of a paper domain; 0 means the
	// paper's 20. A scenario's dataset size is its own.
	Interfaces int
}

// Corpus builds and indexes the world's Surface Web.
func (w World) Corpus() *surfaceweb.Engine {
	scale := w.Scale
	if scale == 0 {
		scale = 1
	}
	e := surfaceweb.NewEngine()
	cfg := surfaceweb.DefaultCorpusConfig()
	cfg.Seed = w.Seed
	surfaceweb.BuildCorpus(e, w.Domains, cfg.Scaled(scale))
	for _, sc := range w.Scenarios {
		surfaceweb.BuildCorpus(e, []*kb.Domain{sc.Domain}, sc.CorpusConfig(w.Seed).Scaled(scale))
	}
	return e
}

// Dataset generates the query interfaces of one domain: a scenario's
// with its own configuration, any other with the paper's. Acquisition
// mutates a dataset; every call returns a fresh, identical one.
func (w World) Dataset(dom *kb.Domain) *schema.Dataset {
	if sc := w.scenario(dom.Key); sc != nil {
		return dataset.Generate(dom, sc.DatasetConfig(w.Seed))
	}
	cfg := dataset.DefaultConfig()
	cfg.Seed = w.Seed
	if w.Interfaces > 0 {
		cfg.Interfaces = w.Interfaces
	}
	return dataset.Generate(dom, cfg)
}

// Pool builds the Deep-Web sources behind a dataset's interfaces. It
// needs no corpus. It panics when the dataset's domain is not in the
// world.
func (w World) Pool(ds *schema.Dataset) *deepweb.Pool {
	dom := w.Domain(ds.Domain)
	if dom == nil {
		panic(fmt.Sprintf("synth: domain %q is not in the world", ds.Domain))
	}
	cfg := deepweb.DefaultConfig()
	cfg.Seed = w.Seed
	return deepweb.BuildPool(ds, dom, cfg)
}

// Domain looks a paper or scenario domain up by key; nil if the world
// has none.
func (w World) Domain(key string) *kb.Domain {
	for _, d := range w.Domains {
		if d.Key == key {
			return d
		}
	}
	if sc := w.scenario(key); sc != nil {
		return sc.Domain
	}
	return nil
}

func (w World) scenario(key string) *Scenario {
	for _, sc := range w.Scenarios {
		if sc.Domain.Key == key {
			return sc
		}
	}
	return nil
}
