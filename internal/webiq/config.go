// Package webiq implements the paper's primary contribution: automatic
// instance acquisition for Deep-Web query-interface attributes. It has
// three components —
//
//   - Surface (Section 2): question-answering-style instance discovery
//     from the Surface Web, with label syntax analysis, Hearst-pattern
//     extraction queries, statistical outlier removal, and PMI-based Web
//     validation;
//   - AttrSurface (Section 3): borrowing instances from other attributes
//     and validating them with a fully automatically trained
//     validation-based naive Bayes classifier;
//   - AttrDeep (Section 4): validating borrowed instances by probing the
//     attribute's own Deep-Web source;
//
// plus the Acquirer (Section 5), the policy that decides which component
// to apply to which attribute before handing the enriched interfaces to
// a matcher.
package webiq

import "webiq/internal/resilience"

// SearchEngine is the slice of a Web search engine WebIQ consumes:
// result snippets for extraction queries and hit counts for validation
// queries. *surfaceweb.Engine satisfies it. It is resilience.Engine, the
// bottom of every fault-client chain.
type SearchEngine = resilience.Engine

// BatchSearchEngine is an engine that answers many hit-count queries
// in one call (*surfaceweb.CachedEngine does, by asking NumHits for each
// in turn). It exists for the repository benchmark's timing decorator,
// which declares that it implements it; nothing in this module asserts
// it, and the validator asks every hit count through NumHits.
type BatchSearchEngine interface {
	NumHitsBatch(queries []string) []int
}

// Config bundles the tunables of all WebIQ components.
type Config struct {
	// K is the target number of instances per attribute; acquiring at
	// least K counts as success (the paper uses 10).
	K int
	// SnippetsPerQuery is how many result snippets are downloaded per
	// extraction query.
	SnippetsPerQuery int
	// MaxSiblingKeywords is how many labels of sibling attributes are
	// added as required keywords to narrow extraction queries.
	MaxSiblingKeywords int
	// UseDomainKeywords enables narrowing extraction queries with the
	// domain keyword and sibling labels (on in the paper; off in the
	// ablation bench).
	UseDomainKeywords bool
	// OutlierSigma is the discordancy-test cutoff in standard
	// deviations (the paper uses 3).
	OutlierSigma float64
	// NumericMajority is the fraction of candidates that must look
	// numeric for the instance domain to be typed numeric (0.8 in the
	// paper).
	NumericMajority float64
	// SkipOutlierRemoval disables the outlier-detection phase (ablation
	// only; the paper's two-phase design keeps it on).
	SkipOutlierRemoval bool
	// UseRawHitCounts scores validation queries by raw co-occurrence
	// hits instead of PMI (ablation only).
	UseRawHitCounts bool
	// MinScore is the minimum average validation score for a candidate
	// to survive Web validation.
	MinScore float64
	// MaxBorrowProbes caps how many of a donor attribute's instances
	// Attr-Deep probes before applying the one-third rule.
	MaxBorrowProbes int
	// BorrowLabelSim is the minimum label similarity for a borrowing
	// donor in Step 1.b of Section 5.
	BorrowLabelSim float64
	// BorrowValueMatches is the minimum number of very similar value
	// pairs for a borrowing donor in Step 2 of Section 5.
	BorrowValueMatches int
	// MaxAcquired caps the instances stored per attribute.
	MaxAcquired int
	// Parallelism > 1 runs the query-heavy phases concurrently on up to
	// that many workers, clamped to the CPUs the scheduler can run at
	// once: the Surface discovery phase across attributes (each
	// attribute's candidates are then scored serially), and — within
	// each attribute — Attr-Surface classifier training and
	// borrowed-value scoring, one candidate per worker, and Attr-Deep
	// probing. Results and substrate query counts are identical to the
	// sequential run: Surface discovery depends only on labels and
	// dataset metadata, the per-attribute validations are independent
	// per value and merged in index order, and the singleflight memo
	// (internal/memo) under both the validator and the query cache
	// issues every engine query once however many workers ask it.
	Parallelism int
	// SurfaceForPredef also runs Surface discovery for attributes that
	// already have predefined instances. The paper's Section-5 scheme
	// skips this "to minimize the overhead caused by querying the search
	// engine"; the flag implements the possibility the paper notes and
	// the corresponding bench quantifies its cost/benefit.
	SurfaceForPredef bool
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{
		K:                  10,
		SnippetsPerQuery:   8,
		MaxSiblingKeywords: 2,
		UseDomainKeywords:  true,
		OutlierSigma:       3,
		NumericMajority:    0.8,
		MinScore:           0,
		MaxBorrowProbes:    6,
		BorrowLabelSim:     0.4,
		BorrowValueMatches: 2,
		MaxAcquired:        20,
	}
}
