// Package webiq is a reproduction of "WebIQ: Learning from the Web to
// Match Deep-Web Query Interfaces" (Wu, Doan, Yu — ICDE 2006): automatic
// instance acquisition for the attributes of Deep-Web query interfaces,
// and instance-enriched interface matching.
//
// The package wires three layers:
//
//   - Substrates: a synthetic Surface Web behind a search-engine
//     interface, Deep-Web sources backed by generated tables, and a
//     reconstruction of the paper's five-domain ICQ dataset. These
//     replace the live Web the paper used (see DESIGN.md).
//   - WebIQ proper: the Surface, Attr-Surface, and Attr-Deep instance
//     acquisition components and the Section-5 acquisition policy.
//   - An IceQ-style matcher that combines label and instance-domain
//     similarity and clusters attributes into match groups.
//
// A minimal session:
//
//	sys := webiq.NewSystem(webiq.Options{})
//	ds := sys.GenerateDataset("airfare")
//	report := sys.Acquire(ds)
//	result, metrics := sys.Match(ds, 0.1)
package webiq

import (
	"context"
	"fmt"
	"time"

	"webiq/internal/htmlform"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
	"webiq/internal/unify"
	iq "webiq/internal/webiq"
)

// Re-exported data model types. A Dataset holds a domain's query
// interfaces; attributes carry predefined and acquired instances.
type (
	// Dataset is a domain's worth of query interfaces plus gold matches.
	Dataset = schema.Dataset
	// Interface is one source query interface.
	Interface = schema.Interface
	// Attribute is one field of a query interface.
	Attribute = schema.Attribute
	// MatchPair is an unordered pair of attribute IDs asserted to match.
	MatchPair = schema.MatchPair
	// Metrics holds precision/recall/F-1 of a matching run.
	Metrics = matcher.Metrics
	// MatchResult holds the matcher's clusters and implied match pairs.
	MatchResult = matcher.Result
	// AcquireReport records per-attribute acquisition outcomes and the
	// per-component overhead of an acquisition run.
	AcquireReport = iq.Report
	// Components selects which acquisition components run.
	Components = iq.Components
	// UnifiedInterface is the uniform query interface built over all
	// matched sources.
	UnifiedInterface = unify.UnifiedInterface
	// UnifiedAttribute is one attribute of the unified interface.
	UnifiedAttribute = unify.UnifiedAttribute
)

// Options configures a System. The zero value gives the paper-faithful
// defaults.
type Options struct {
	// Seed drives every generator; equal seeds give identical systems.
	// Defaults to 1.
	Seed int64
	// Interfaces is the number of query interfaces per domain (paper:
	// 20).
	Interfaces int
	// K is the acquisition target per attribute (paper: 10).
	K int
	// Components selects the acquisition components; the zero value is
	// replaced by all components enabled.
	Components Components
	// MatchAlpha/MatchBeta weight label vs instance similarity (paper:
	// .6/.4).
	MatchAlpha, MatchBeta float64
	// IncludeExtensions adds the extension domains (currently: movie)
	// beyond the paper's five evaluation domains. The synthetic corpus
	// then carries pages for them too.
	IncludeExtensions bool
}

func (o *Options) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Interfaces == 0 {
		o.Interfaces = 20
	}
	if o.K == 0 {
		o.K = 10
	}
	if o.Components == (Components{}) {
		o.Components = iq.AllComponents()
	}
	if o.MatchAlpha == 0 && o.MatchBeta == 0 {
		o.MatchAlpha, o.MatchBeta = 0.6, 0.4
	}
}

// System bundles the synthetic Surface Web, the domain knowledge bases,
// and the WebIQ configuration. Construction indexes the corpus once;
// datasets are generated per domain on demand, and each Acquire builds
// the Deep-Web sources of the dataset it is given.
type System struct {
	opts   Options
	world  synth.World
	engine *surfaceweb.Engine
	cfg    iq.Config
}

// NewSystem builds a fully-wired system.
func NewSystem(opts Options) *System {
	opts.fill()
	domains := kb.Domains()
	if opts.IncludeExtensions {
		domains = kb.ExtendedDomains()
	}
	s := &System{
		opts:  opts,
		world: synth.World{Seed: opts.Seed, Domains: domains, Interfaces: opts.Interfaces},
		cfg:   iq.DefaultConfig(),
	}
	s.cfg.K = opts.K
	s.engine = s.world.Corpus()
	return s
}

// DomainKeys returns the available domain keys.
func (s *System) DomainKeys() []string {
	out := make([]string, len(s.world.Domains))
	for i, d := range s.world.Domains {
		out[i] = d.Key
	}
	return out
}

// GenerateDataset generates the query interfaces of one domain. It
// panics on an unknown domain key; use DomainKeys to enumerate them.
func (s *System) GenerateDataset(domain string) *Dataset {
	d := s.world.Domain(domain)
	if d == nil {
		panic(fmt.Sprintf("webiq: unknown domain %q", domain))
	}
	return s.world.Dataset(d)
}

// Acquire runs the WebIQ acquisition policy over the dataset, mutating
// the attributes' Acquired fields, and returns the report. The dataset
// may be generated or built by hand (as in the quickstart example); its
// Deep-Web sources are built from its own interfaces. It panics when
// the dataset's domain is not one of DomainKeys.
func (s *System) Acquire(ds *Dataset) *AcquireReport {
	return iq.NewPipeline(s.engine, s.world.Pool(ds), s.cfg, s.opts.Components).AcquireAllCtx(context.Background(), ds)
}

// Match clusters the dataset's attributes at threshold tau and scores
// the result against the gold standard.
func (s *System) Match(ds *Dataset, tau float64) (*MatchResult, Metrics) {
	m := matcher.New(matcher.Config{
		Alpha: s.opts.MatchAlpha, Beta: s.opts.MatchBeta, Threshold: tau,
	})
	res := m.Match(ds)
	return res, matcher.Evaluate(res.Pairs, ds.GoldPairs())
}

// LearnThreshold runs IceQ's interactive threshold learning with a
// simulated user backed by the dataset's gold standard, asking at most
// budget questions. It returns the learned τ and the questions asked.
func (s *System) LearnThreshold(ds *Dataset, budget int) (float64, int) {
	m := matcher.New(matcher.Config{Alpha: s.opts.MatchAlpha, Beta: s.opts.MatchBeta})
	return m.LearnThreshold(ds, matcher.GoldOracle(ds), budget)
}

// SearchQueries returns the total number of search-engine queries issued
// so far, and the accumulated simulated retrieval time.
func (s *System) SearchQueries() (int, time.Duration) {
	return s.engine.QueryCount(), s.engine.VirtualTime()
}

// CorpusSize returns the number of pages in the synthetic Surface Web.
func (s *System) CorpusSize() int { return s.engine.NumDocs() }

// BuildUnified constructs the uniform query interface from a matching
// result — the downstream artifact Deep-Web integration is after: one
// attribute per match cluster, carrying the union of the sources'
// (predefined and acquired) instances.
func BuildUnified(ds *Dataset, res *MatchResult) *UnifiedInterface {
	return unify.Build(ds, res)
}

// RenderInterfaceHTML renders a query interface as an HTML form page.
func RenderInterfaceHTML(ifc *Interface) string {
	return htmlform.Render(ifc)
}

// ExtractInterfaceHTML recovers a query interface from a form page —
// the interface-extraction step that precedes matching in a Deep-Web
// integration pipeline. The returned attributes carry the extracted
// labels and any predefined instances found in select boxes.
func ExtractInterfaceHTML(html, interfaceID string) (*Interface, error) {
	return htmlform.Extract(html, interfaceID)
}
