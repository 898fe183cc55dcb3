// Package eval is the matching-quality evaluation harness: eval sets
// (per-domain gold labels derived from the concept layer), one fixed
// metric set (per-stage precision/recall/F1, matcher merge accuracy,
// degradation counts), multi-run aggregation across seeds, and the
// machine-readable quality report behind `make eval-gate`.
//
// It is the quality counterpart of the perf bench gate: where
// BENCH_pipeline.json catches allocation and wall-clock regressions,
// EVAL_quality.json catches a perf or scale PR silently wrecking
// Surface/Attr-Surface/Attr-Deep accuracy. Every eval run emits
// webiq_eval_* metrics through internal/obs and stamps trace IDs, so
// any false positive or negative is explainable through the decision
// ledger and /unified/{domain}/explain.
//
// The multi-run aggregation follows the WithNumRuns design of
// trpc-agent-go's evaluation framework (see SNIPPETS.md).
package eval

import (
	"sort"
	"strconv"
	"strings"

	"webiq/internal/kb"
	"webiq/internal/schema"
)

// NumericGold describes membership in a numeric concept's value domain
// by rule rather than enumeration: predefined numeric instance lists
// are sampled per interface, so no fixed vocabulary covers every value
// a run may legitimately acquire.
type NumericGold struct {
	Min      int  `json:"min"`
	Max      int  `json:"max"`
	Step     int  `json:"step"`
	Monetary bool `json:"monetary,omitempty"`
	Commas   bool `json:"commas,omitempty"`
	Decimals int  `json:"decimals,omitempty"`
}

// Contains reports whether the rendered value belongs to the numeric
// domain: it parses (after stripping "$" and thousands separators) and
// falls on a step inside [Min, Max].
func (ng *NumericGold) Contains(v string) bool {
	s := strings.TrimSpace(v)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	if ng.Decimals > 0 {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return false
		}
		scale := 1
		for i := 0; i < ng.Decimals; i++ {
			scale *= 10
		}
		n := int(f*float64(scale) + 0.5)
		return ng.inRange(n)
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return false
	}
	return ng.inRange(n)
}

func (ng *NumericGold) inRange(n int) bool {
	if n < ng.Min || n > ng.Max {
		return false
	}
	step := ng.Step
	if step <= 0 {
		step = 1
	}
	return (n-ng.Min)%step == 0
}

// AttrGold is the gold standard for one attribute: the instance
// vocabulary of its hidden concept (folded to lower case for string
// concepts, a membership rule for numeric ones) plus its concept ID for
// cluster scoring.
type AttrGold struct {
	AttrID      string `json:"attr_id"`
	InterfaceID string `json:"interface_id"`
	Label       string `json:"label"`
	ConceptID   string `json:"concept_id"`
	// Predefined is true when the attribute ships with a predefined
	// instance list (Step 2 of the acquisition policy applies).
	Predefined bool `json:"predefined,omitempty"`
	// Findable mirrors the concept: instances occur on the Surface Web.
	// Acquisition failure on non-findable attributes is expected, and
	// recall is not charged for them.
	Findable bool `json:"findable,omitempty"`
	// Instances is the folded gold vocabulary (string concepts).
	Instances []string `json:"instances,omitempty"`
	// Numeric replaces Instances for numeric concepts.
	Numeric *NumericGold `json:"numeric,omitempty"`
}

// Correct reports whether an acquired value is a gold instance of the
// attribute's concept.
func (g *AttrGold) Correct(value string) bool {
	if g.Numeric != nil {
		return g.Numeric.Contains(value)
	}
	f := strings.ToLower(value)
	for _, inst := range g.Instances {
		if inst == f {
			return true
		}
	}
	return false
}

// Set is the on-disk evaluation set of one domain: per-attribute gold
// instance vocabularies, the expected unified-interface clusters, and
// the expected matcher merges. Because interfaces and gold derive from
// the same concept layer, the set is exact by construction.
type Set struct {
	// ID names the set; by convention the domain key.
	ID string `json:"eval_set_id"`
	// Domain is the domain key the set evaluates.
	Domain string `json:"domain"`
	// Synthetic marks sweep-generated domains (internal/synth).
	Synthetic bool `json:"synthetic,omitempty"`
	// Attrs carries the gold standard per attribute.
	Attrs []AttrGold `json:"attrs"`
	// Clusters are the expected unified-interface clusters: attribute
	// IDs grouped by concept (groups of two or more).
	Clusters [][]string `json:"clusters"`
	// Pairs are the expected matcher merges implied by Clusters.
	Pairs []schema.MatchPair `json:"pairs"`
}

// GoldPairSet returns the expected merges as a set.
func (s *Set) GoldPairSet() map[schema.MatchPair]bool {
	out := make(map[schema.MatchPair]bool, len(s.Pairs))
	for _, p := range s.Pairs {
		out[p] = true
	}
	return out
}

// BuildSet derives the evaluation set of a dataset from its domain's
// concept layer. It must be called on the freshly generated dataset
// (before acquisition mutates nothing relevant — gold depends only on
// concept vocabularies and the predefined lists).
func BuildSet(ds *schema.Dataset, dom *kb.Domain, synthetic bool) *Set {
	concepts := map[string]*kb.Concept{}
	for _, c := range dom.Concepts {
		concepts[c.ID] = c
	}
	set := &Set{ID: ds.Domain, Domain: ds.Domain, Synthetic: synthetic}
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			g := AttrGold{
				AttrID:      a.ID,
				InterfaceID: a.InterfaceID,
				Label:       a.Label,
				ConceptID:   a.ConceptID,
				Predefined:  a.HasInstances(),
			}
			if c := concepts[a.ConceptID]; c != nil {
				g.Findable = c.Findable
				if c.Numeric != nil {
					g.Numeric = &NumericGold{
						Min: c.Numeric.Min, Max: c.Numeric.Max, Step: c.Numeric.Step,
						Monetary: c.Numeric.Monetary, Commas: c.Numeric.Commas,
						Decimals: c.Numeric.Decimals,
					}
				} else {
					seen := map[string]bool{}
					for _, v := range c.AllInstances() {
						f := strings.ToLower(v)
						if !seen[f] {
							seen[f] = true
							g.Instances = append(g.Instances, f)
						}
					}
					sort.Strings(g.Instances)
				}
			}
			set.Attrs = append(set.Attrs, g)
		}
	}
	set.Clusters = ds.GoldClusters()
	for p := range ds.GoldPairs() {
		set.Pairs = append(set.Pairs, p)
	}
	sort.Slice(set.Pairs, func(i, j int) bool {
		if set.Pairs[i].A != set.Pairs[j].A {
			return set.Pairs[i].A < set.Pairs[j].A
		}
		return set.Pairs[i].B < set.Pairs[j].B
	})
	return set
}
