// Package kb defines the domain knowledge bases behind the synthetic
// reconstruction of the ICQ dataset: for each of the five evaluation
// domains (airfare, automobile, book, job, real estate) it enumerates the
// semantic attribute concepts, their label variants, their instance
// vocabularies, and the statistical knobs used to calibrate the dataset
// to Table 1 of the paper.
//
// The same concept layer backs all three substrates: the dataset
// generator derives query interfaces (and gold matches) from concepts,
// the Surface-Web corpus generator plants concept instances in web pages,
// and the Deep-Web sources build their backing tables from concept
// vocabularies.
package kb

import (
	"fmt"
	"math/rand"
	"strconv"

	"webiq/internal/fnv1a"
)

// Type is the value type of an attribute domain, matching the type
// inventory IceQ's domain-similarity measure distinguishes.
type Type int

const (
	String Type = iota
	Integer
	Real
	Monetary
	Date
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case String:
		return "string"
	case Integer:
		return "integer"
	case Real:
		return "real"
	case Monetary:
		return "monetary"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// NumericSpec describes how to render instances of a numeric concept.
type NumericSpec struct {
	Min, Max int  // inclusive value range
	Step     int  // granularity of generated values
	Monetary bool // render with "$" and thousands separators
	Commas   bool // render with thousands separators (non-monetary)
	Decimals int  // number of decimal places (Real concepts)
}

// Render formats value v according to the spec.
func (ns NumericSpec) Render(v int) string {
	if ns.Decimals > 0 {
		scale := 1
		for i := 0; i < ns.Decimals; i++ {
			scale *= 10
		}
		return strconv.FormatFloat(float64(v)/float64(scale), 'f', ns.Decimals, 64)
	}
	s := strconv.Itoa(v)
	if ns.Monetary || ns.Commas {
		s = groupThousands(s)
	}
	if ns.Monetary {
		s = "$" + s
	}
	return s
}

// Sample returns n distinct rendered values drawn uniformly from the
// spec's range using rng.
func (ns NumericSpec) Sample(rng *rand.Rand, n int) []string {
	steps := (ns.Max-ns.Min)/max(1, ns.Step) + 1
	if n > steps {
		n = steps
	}
	seen := make(map[int]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		v := ns.Min + rng.Intn(steps)*max(1, ns.Step)
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, ns.Render(v))
	}
	return out
}

func groupThousands(s string) string {
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg, s = true, s[1:]
	}
	if len(s) <= 3 {
		if neg {
			return "-" + s
		}
		return s
	}
	var out []byte
	lead := len(s) % 3
	if lead > 0 {
		out = append(out, s[:lead]...)
	}
	for i := lead; i < len(s); i += 3 {
		if len(out) > 0 {
			out = append(out, ',')
		}
		out = append(out, s[i:i+3]...)
	}
	if neg {
		return "-" + string(out)
	}
	return string(out)
}

// LabelVariant is one way interfaces label a concept, with a relative
// selection weight.
type LabelVariant struct {
	Text   string
	Weight float64
}

// Concept is a semantic attribute class within a domain. Two interface
// attributes match (gold standard) iff they derive from the same concept.
type Concept struct {
	// ID is the globally unique concept identifier, "domain.name".
	ID string
	// Domain is the domain key ("airfare", "auto", "book", "job",
	// "realestate").
	Domain string
	// Name is the canonical human-readable concept name ("departure
	// city").
	Name string
	// Type is the value type of the concept's instance domain.
	Type Type
	// Labels are the label variants interfaces use for this concept,
	// with selection weights. The dataset generator picks one per
	// interface. Variants deliberately span syntactic forms (noun
	// phrases, prepositional phrases, verb phrases, bare prepositions)
	// to reproduce the per-domain extraction difficulties Section 6
	// reports.
	Labels []LabelVariant
	// GroupLabels, when non-nil, overrides Labels per instance group: an
	// interface whose regional bias is group g draws its label from
	// GroupLabels[g]. This reproduces the paper's motivating example
	// where NA-flavored sources say "Airline" while EU-flavored sources
	// say "Carrier" — matching attributes with disjoint labels AND
	// dissimilar instances.
	GroupLabels [][]LabelVariant
	// Groups are the instance vocabulary, partitioned into regional (or
	// otherwise disjoint-flavored) groups. An interface with predefined
	// instances lists values drawn mostly from one group, reproducing the
	// "North-American vs European airlines" dissimilarity the paper
	// motivates with. String-typed concepts only.
	Groups [][]string
	// Numeric is non-nil for numeric concepts and replaces Groups.
	Numeric *NumericSpec
	// Presence is the probability the concept appears as an attribute on
	// a given interface of its domain.
	Presence float64
	// PredefProb is the probability that an interface exposes the
	// attribute with a predefined instance list (a selection box) rather
	// than a free-text input.
	PredefProb float64
	// Findable reports whether instances of this concept can reasonably
	// be found on the (Surface) Web. Generic attributes (keyword,
	// description) and personal ones (buyer id) are not findable; this
	// drives Table 1's ExpInst column.
	Findable bool
	// WebPresence in [0,1] scales how densely the synthetic corpus plants
	// extraction-pattern sentences for the concept. Concepts the paper
	// singles out as hard (measurement units, ambiguous "zip") get low
	// values.
	WebPresence float64
}

// AllInstances returns the concept's full instance vocabulary, flattening
// groups. Numeric concepts return a representative rendered sample that is
// deterministic in the concept ID.
func (c *Concept) AllInstances() []string {
	if c.Numeric != nil {
		rng := rand.New(rand.NewSource(int64(fnv1a.String(c.ID))))
		return c.Numeric.Sample(rng, 20)
	}
	var out []string
	for _, g := range c.Groups {
		out = append(out, g...)
	}
	return out
}

// IsNumeric reports whether the concept has a numeric instance domain.
func (c *Concept) IsNumeric() bool { return c.Numeric != nil }

// Domain is one of the five evaluation domains.
type Domain struct {
	// Key is the machine name ("airfare").
	Key string
	// DisplayName is the paper's name for the domain ("Airfare").
	DisplayName string
	// EntityName is the real-world entity the domain's interfaces query
	// ("flight", "car", "book", "job", "home"); used as the object name O
	// in singleton extraction patterns and as a domain keyword.
	EntityName string
	// DomainKeyword is the name of the domain used to narrow extraction
	// queries ("real estate" for the realestate domain).
	DomainKeyword string
	// Concepts are the attribute concepts of the domain.
	Concepts []*Concept
}

// ConceptByName returns the domain's concept with the given short name,
// or nil.
func (d *Domain) ConceptByName(name string) *Concept {
	for _, c := range d.Concepts {
		if c.Name == name {
			return c
		}
	}
	return nil
}
