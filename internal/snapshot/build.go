package snapshot

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"runtime"
	"slices"

	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/schema"
	"webiq/internal/synth"
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
// stored bytes round-trip exactly), any degradations, the explain page
// rendered from the provenance ledger, and the ledger's decision counts.
// The decisions themselves stay encoded; World.Decisions decodes them.
//
// Builds run without a tracer, so decisions carry empty trace IDs.
type DomainWorld struct {
	Domain       string                  `json:"domain"`
	Unified      *unify.UnifiedInterface `json:"unified"`
	ReportJSON   json.RawMessage         `json:"report"`
	Degradations []iq.Degradation        `json:"degradations,omitempty"`
	// DecisionCounts counts the domain's decisions by component and
	// verdict, sorted by both; every count is positive.
	DecisionCounts []DecisionCount `json:"decision_counts"`
	// Explain is the domain's /unified/{domain}/explain JSON
	// (unify.RenderExplain over its decisions), stored in the explains
	// section.
	Explain []byte `json:"-"`

	// ledger is the domain's ledger NDJSON, stored in the decisions
	// section.
	ledger []byte
}

// DecisionCount is how many of a domain's decisions one component
// reached with one verdict.
type DecisionCount struct {
	Component string `json:"component"`
	Verdict   string `json:"verdict"`
	N         int    `json:"n"`
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

// Close releases nothing: Load copies everything it keeps (the
// explains and decisions sections as one pointer-free byte copy each)
// and unmaps the file before returning. It is kept so callers can
// release every world alike.
func (w *World) Close() error { return nil }

// Decisions decodes one domain's provenance ledger, in emission order.
// It fails when the domain is unknown or when its stored NDJSON does
// not decode to exactly the decisions its DecisionCounts count.
func (w *World) Decisions(domain string) ([]obs.Decision, error) {
	for i := range w.Domains {
		if dw := &w.Domains[i]; dw.Domain == domain {
			return dw.decodeLedger()
		}
	}
	return nil, errf("no domain %q", domain)
}

func (dw *DomainWorld) decodeLedger() ([]obs.Decision, error) {
	want := 0
	for _, c := range dw.DecisionCounts {
		want += c.N
	}
	out := make([]obs.Decision, 0, want)
	for rest := dw.ledger; len(rest) > 0; {
		line, tail, ok := bytes.Cut(rest, []byte{'\n'})
		if !ok {
			return nil, errf("decisions of %s: line %d is not terminated", dw.Domain, len(out)+1)
		}
		var d obs.Decision
		if err := json.Unmarshal(line, &d); err != nil {
			return nil, errf("decisions of %s, line %d: %v", dw.Domain, len(out)+1, err)
		}
		if d.Seq != len(out) {
			return nil, errf("decisions of %s, line %d: seq %d", dw.Domain, len(out)+1, d.Seq)
		}
		out = append(out, d)
		rest = tail
	}
	if !slices.Equal(countDecisions(out), dw.DecisionCounts) {
		return nil, errf("decisions of %s disagree with their stored counts", dw.Domain)
	}
	return out, nil
}

// countDecisions tallies decisions by component and verdict, sorted by
// both.
func countDecisions(decisions []obs.Decision) []DecisionCount {
	n := map[DecisionCount]int{}
	for _, d := range decisions {
		n[DecisionCount{Component: d.Component, Verdict: d.Verdict}]++
	}
	out := make([]DecisionCount, 0, len(n))
	for k, c := range n {
		k.N = c
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b DecisionCount) int {
		return cmp.Or(cmp.Compare(a.Component, b.Component), cmp.Compare(a.Verdict, b.Verdict))
	})
	return out
}

// Dataset returns the stored dataset for a domain key, or nil.
func (w *World) Dataset(domain string) *schema.Dataset {
	for _, ds := range w.Datasets {
		if ds.Domain == domain {
			return ds
		}
	}
	return nil
}

// BuildConfig parameterizes an offline world build.
type BuildConfig struct {
	Seed  int64
	Scale float64 // corpus size multiplier; 0 means 1 (the server's size)
}

// BuildWorld runs the full WebIQ pipeline offline — corpus, datasets,
// deep-web pools, acquisition, matching, unification for every domain —
// and returns what the pipeline produced, with each domain's explain
// page rendered and its ledger encoded as NDJSON; the corpus is dropped
// with the engine. It is the one way a world is made: a snapshot file
// stores it, and server.New boots straight from it in memory.
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
	sw := synth.World{Seed: cfg.Seed, Scale: cfg.Scale, Domains: kb.Domains()}
	engine := sw.Corpus()

	w := &World{Meta: Meta{GoVersion: runtime.Version(), Seed: cfg.Seed, Scale: cfg.Scale}}
	w.Fingerprint = fingerprint(w.Meta.GoVersion, w.Meta.Seed, w.Meta.Scale)
	for _, dom := range sw.Domains {
		ds := sw.Dataset(dom)
		pool := sw.Pool(ds)

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
		decisions := ledger.Decisions()
		explain, err := unify.RenderExplain(dom.Key, u, ds, decisions)
		if err != nil {
			return nil, errf("render explain for %s: %v", dom.Key, err)
		}
		var nd bytes.Buffer
		enc := json.NewEncoder(&nd)
		for _, d := range decisions {
			if err := enc.Encode(d); err != nil {
				return nil, errf("encode decision for %s: %v", dom.Key, err)
			}
		}
		w.Datasets = append(w.Datasets, ds)
		w.Domains = append(w.Domains, DomainWorld{
			Domain:         dom.Key,
			Unified:        u,
			ReportJSON:     repJSON,
			Degradations:   rep.Degradations,
			DecisionCounts: countDecisions(decisions),
			Explain:        explain,
			ledger:         nd.Bytes(),
		})
		w.Meta.Domains = append(w.Meta.Domains, dom.Key)
		w.Meta.Decisions += len(decisions)
	}
	return w, nil
}
