package synth_test

import (
	"bytes"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
)

// handWorld is the wiring every builder copied before World existed:
// the paper domains in one seeded corpus stream, each scenario in its
// own CorpusConfig stream, paper datasets from the default config, and
// seeded Deep-Web pools. It is the oracle World must reproduce.
type handWorld struct {
	seed      int64
	scenarios []*synth.Scenario
}

func (h handWorld) corpus() *surfaceweb.Engine {
	e := surfaceweb.NewEngine()
	cfg := surfaceweb.DefaultCorpusConfig()
	cfg.Seed = h.seed
	surfaceweb.BuildCorpus(e, kb.Domains(), cfg)
	for _, sc := range h.scenarios {
		surfaceweb.BuildCorpus(e, []*kb.Domain{sc.Domain}, sc.CorpusConfig(h.seed))
	}
	return e
}

func (h handWorld) dataset(dom *kb.Domain) *schema.Dataset {
	for _, sc := range h.scenarios {
		if sc.Domain == dom {
			return dataset.Generate(dom, sc.DatasetConfig(h.seed))
		}
	}
	cfg := dataset.DefaultConfig()
	cfg.Seed = h.seed
	return dataset.Generate(dom, cfg)
}

func (h handWorld) pool(ds *schema.Dataset, dom *kb.Domain) *deepweb.Pool {
	cfg := deepweb.DefaultConfig()
	cfg.Seed = h.seed
	return deepweb.BuildPool(ds, dom, cfg)
}

func TestWorldMatchesHandWiring(t *testing.T) {
	for _, seed := range []int64{1, 11} {
		scenarios := synth.Sweep(3, seed)
		w := synth.World{Seed: seed, Domains: kb.Domains(), Scenarios: scenarios}
		h := handWorld{seed: seed, scenarios: scenarios}

		got, want := w.Corpus(), h.corpus()
		if got.NumDocs() != want.NumDocs() {
			t.Fatalf("seed %d: corpus has %d documents, hand wiring %d", seed, got.NumDocs(), want.NumDocs())
		}
		domains := append([]*kb.Domain{}, w.Domains...)
		for _, sc := range scenarios {
			domains = append(domains, sc.Domain)
		}
		for _, dom := range domains {
			if w.Domain(dom.Key) != dom {
				t.Errorf("seed %d: Domain(%q) does not return the world's domain", seed, dom.Key)
			}
			for _, q := range []string{dom.DomainKeyword, `"such as" +` + dom.DomainKeyword} {
				if g, x := got.NumHits(q), want.NumHits(q); g != x {
					t.Errorf("seed %d: NumHits(%s) = %d, hand wiring %d", seed, q, g, x)
				}
				gs, xs := got.Search(q, 8), want.Search(q, 8)
				if len(gs) != len(xs) {
					t.Errorf("seed %d: Search(%s) gave %d snippets, hand wiring %d", seed, q, len(gs), len(xs))
					continue
				}
				for i := range gs {
					if gs[i].DocID != xs[i].DocID || gs[i].Text != xs[i].Text {
						t.Errorf("seed %d: Search(%s)[%d] = %d %q, hand wiring %d %q",
							seed, q, i, gs[i].DocID, gs[i].Text, xs[i].DocID, xs[i].Text)
					}
				}
			}

			ds, hds := w.Dataset(dom), h.dataset(dom)
			var gb, xb bytes.Buffer
			if err := ds.WriteJSON(&gb); err != nil {
				t.Fatal(err)
			}
			if err := hds.WriteJSON(&xb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), xb.Bytes()) {
				t.Errorf("seed %d: %s dataset differs from the hand-wired one", seed, dom.Key)
			}

			pool, hpool := w.Pool(ds), h.pool(hds, dom)
			for _, ifc := range ds.Interfaces {
				a := ifc.Attributes[0]
				value := "probe"
				if len(a.Instances) > 0 {
					value = a.Instances[0]
				}
				g := pool.Source(ifc.ID).Probe(a.ID, value)
				x := hpool.Source(ifc.ID).Probe(a.ID, value)
				if g != x {
					t.Errorf("seed %d: %s probe %s=%q differs from the hand-wired pool", seed, ifc.ID, a.ID, value)
				}
			}
		}
	}
}

func TestWorldPoolPanicsOnUnknownDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pool on a dataset of an unknown domain did not panic")
		}
	}()
	synth.World{Seed: 1, Domains: kb.Domains()}.Pool(&schema.Dataset{Domain: "nope"})
}
