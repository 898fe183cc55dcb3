// Package deepweb simulates Deep-Web data sources: each query interface
// of the dataset is backed by a relational table generated from the
// domain knowledge base. A probe sets one attribute to a candidate value
// (other attributes keep their defaults) and yields a response page that
// must be classified as success or failure by the response-analysis
// heuristics — exactly the observable Attr-Deep consumes.
package deepweb

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"webiq/internal/htmlform"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/schema"
)

// Config controls source construction.
type Config struct {
	// Seed drives table generation.
	Seed int64
	// Records is the backing-table size per source.
	Records int
	// PartialQueryProb is the probability a source accepts partial
	// queries (values left unspecified). The paper notes many — not all —
	// interfaces permit them; sources that do not reject every probe.
	PartialQueryProb float64
	// MinLatency/MaxLatency bound the simulated per-probe round trip.
	MinLatency, MaxLatency time.Duration
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Records:          300,
		PartialQueryProb: 0.9,
		MinLatency:       300 * time.Millisecond,
		MaxLatency:       1500 * time.Millisecond,
	}
}

// Source is one Deep-Web data source.
type Source struct {
	ifc *schema.Interface
	// cols holds the backing table column-wise: cols[i] is attribute
	// ifc.Attributes[i] over every record.
	cols []column
	// partialOK reports whether the source accepts partial queries.
	partialOK bool
	pool      *Pool
}

// column is one attribute of a backing table, dictionary-encoded: the
// value pool the records draw from plus each record's pool index. The
// pool is lower-cased (string attributes) or parsed (numeric ones) once
// at build time, so a probe compares its value against the pool and
// then walks the row indices. An attribute with no concept or an empty
// pool has no values: it matches nothing and renders nothing.
type column struct {
	// numeric is the generating concept's numeric spec; nil for string
	// attributes and attributes without a concept.
	numeric *kb.NumericSpec
	vals    []string
	// fold holds vals lower-cased (string attributes); num holds vals
	// parsed, NaN where a value does not parse (numeric attributes).
	fold []string
	num  []float64
	// rows holds each record's index into vals.
	rows []uint32
}

// Pool is the set of sources for a dataset, with shared probe
// accounting for the overhead experiment.
type Pool struct {
	mu          sync.Mutex
	sources     map[string]*Source
	cfg         Config
	queries     int
	virtualTime time.Duration

	// Optional metrics; nil-safe no-ops when Instrument was not called.
	mProbes  *obs.CounterVec // labelled by source interface ID
	mLatency *obs.Histogram
}

// Instrument registers the pool's metrics on r:
//
//	webiq_pool_probes_total{source}     probes served per source
//	webiq_pool_probe_virtual_seconds    per-probe simulated round trip
//
// Pools for several domains may share one registry: the families are
// registered once and the per-source label keeps them apart. Passing
// nil leaves the pool uninstrumented (the default).
func (p *Pool) Instrument(r *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mProbes = r.CounterVec("webiq_pool_probes_total", "Deep-Web probe queries served, by source.", "source")
	p.mLatency = r.Histogram("webiq_pool_probe_virtual_seconds", "Simulated per-probe round-trip latency in seconds.", nil)
}

// BuildPool constructs sources for every interface in the dataset.
// Each record assigns every attribute a value from its concept's full
// vocabulary (sources hold data well beyond what their interfaces show
// as predefined options); numeric attributes draw from 50 values
// sampled per attribute.
func BuildPool(ds *schema.Dataset, dom *kb.Domain, cfg Config) *Pool {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hash32(ds.Domain))))
	conceptByID := map[string]*kb.Concept{}
	for _, c := range dom.Concepts {
		conceptByID[c.ID] = c
	}
	// String vocabularies are fixed per concept, so every column of a
	// concept shares one pool and its folded form.
	shared := map[*kb.Concept]*column{}
	p := &Pool{sources: map[string]*Source{}, cfg: cfg}
	for _, ifc := range ds.Interfaces {
		s := &Source{
			ifc:       ifc,
			cols:      make([]column, len(ifc.Attributes)),
			partialOK: rng.Float64() < cfg.PartialQueryProb,
			pool:      p,
		}
		// Pools first, in attribute order (numeric samples draw from
		// rng), then the records row by row.
		for i, a := range ifc.Attributes {
			c := conceptByID[a.ConceptID]
			switch {
			case c == nil:
			case c.Numeric != nil:
				vals := c.Numeric.Sample(rng, 50)
				num := make([]float64, len(vals))
				for j, v := range vals {
					num[j] = math.NaN()
					if f, ok := parseNumber(v); ok {
						num[j] = f
					}
				}
				s.cols[i] = column{numeric: c.Numeric, vals: vals, num: num}
			default:
				sc := shared[c]
				if sc == nil {
					vals := c.AllInstances()
					fold := make([]string, len(vals))
					for j, v := range vals {
						fold[j] = strings.ToLower(v)
					}
					sc = &column{vals: vals, fold: fold}
					shared[c] = sc
				}
				s.cols[i] = *sc
			}
		}
		idx := make([]uint32, cfg.Records*len(s.cols))
		for i := range s.cols {
			if len(s.cols[i].vals) > 0 {
				s.cols[i].rows, idx = idx[:cfg.Records:cfg.Records], idx[cfg.Records:]
			}
		}
		for r := 0; r < cfg.Records; r++ {
			for i := range s.cols {
				if c := &s.cols[i]; len(c.vals) > 0 {
					c.rows[r] = uint32(rng.Intn(len(c.vals)))
				}
			}
		}
		p.sources[ifc.ID] = s
	}
	return p
}

// Source returns the source backing the given interface ID, or nil.
func (p *Pool) Source(interfaceID string) *Source {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sources[interfaceID]
}

// QueryCount returns the number of probes served across the pool.
func (p *Pool) QueryCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queries
}

// VirtualTime returns the accumulated simulated probe time.
func (p *Pool) VirtualTime() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.virtualTime
}

// ResetAccounting zeroes the probe counter and virtual clock.
func (p *Pool) ResetAccounting() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries = 0
	p.virtualTime = 0
}

// charge accounts one probe. Its simulated latency hashes the key
// sourceID|attrID|value.
func (p *Pool) charge(sourceID, attrID, value string) {
	h := fnv32(fnv32(fnv32(fnv32(fnv32(fnvOffset, sourceID), "|"), attrID), "|"), value)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.queries++
	lat := p.cfg.MinLatency
	if span := p.cfg.MaxLatency - p.cfg.MinLatency; span > 0 {
		lat += time.Duration(int64(h) % int64(span))
	}
	p.virtualTime += lat
	p.mProbes.With(sourceID).Inc()
	p.mLatency.Observe(lat.Seconds())
}

// maxMatches caps the records a probe selects; the result page lists
// at most maxListed of them.
const (
	maxMatches = 10
	maxListed  = 5
)

// Probe submits a query with the given attribute set to value and all
// other attributes left at their defaults (empty), returning the
// response page. It implements the "Formulate and Submit a Query" step
// of Section 4.
func (s *Source) Probe(attrID, value string) string {
	s.pool.charge(s.ifc.ID, attrID, value)

	col := -1
	for i, a := range s.ifc.Attributes {
		if a.ID == attrID {
			col = i
			break
		}
	}
	if col < 0 {
		return pageUnknownField
	}
	if !s.partialOK {
		return pagePartialRejected
	}
	// Predefined-value attributes reject values outside their list —
	// the reason Step 2 of Section 5 cannot use Attr-Deep for them.
	if attr := s.ifc.Attributes[col]; attr.HasInstances() && !containsFold(attr.Instances, value) {
		return renderError("invalid selection for " + attr.Label)
	}
	var buf [maxMatches]int
	matches := s.cols[col].match(value, buf[:0])
	if len(matches) == 0 {
		return pageNoResults
	}
	return s.renderResults(matches)
}

// match appends to out the first maxMatches records whose value matches
// the probe value. String attributes match case-insensitively; numeric
// attributes act as range filters accepting any parseable value within
// the concept's range.
func (c *column) match(value string, out []int) []int {
	// sel marks the pool entries the probe selects.
	var selBuf [128]bool
	sel := selBuf[:0]
	if len(c.vals) <= len(selBuf) {
		sel = selBuf[:len(c.vals)]
	} else {
		sel = make([]bool, len(c.vals))
	}
	hit := false
	if ns := c.numeric; ns != nil {
		v, ok := parseNumber(value)
		if !ok {
			return out
		}
		lo, hi := float64(ns.Min), float64(ns.Max)
		if ns.Decimals > 0 {
			scale := 1.0
			for i := 0; i < ns.Decimals; i++ {
				scale *= 10
			}
			lo, hi = lo/scale, hi/scale
		}
		if v < lo || v > hi {
			return out
		}
		// A numeric filter inside the range selects roughly the rows at
		// or below the value (max-style filters dominate interfaces).
		// Unparseable pool entries are NaN and never pass.
		for j, n := range c.num {
			sel[j] = n <= v
			hit = hit || sel[j]
		}
	} else {
		want := strings.ToLower(strings.TrimSpace(value))
		if want == "" {
			return out
		}
		for j, f := range c.fold {
			sel[j] = f == want
			hit = hit || sel[j]
		}
	}
	if !hit {
		return out
	}
	for r, j := range c.rows {
		if sel[j] {
			out = append(out, r)
			if len(out) == maxMatches {
				break
			}
		}
	}
	return out
}

// renderResults renders a result page listing matched records.
func (s *Source) renderResults(rows []int) string {
	listed := rows[:min(len(rows), maxListed)]
	count := strconv.Itoa(len(rows))
	n := len("<html><title> results</title><body><p>Found  results matching your search.</p><ul></ul></body></html>") +
		len(s.ifc.Source) + len(count)
	for _, r := range listed {
		n += len("<li></li>")
		for i, a := range s.ifc.Attributes {
			if v := s.cols[i].value(r); v != "" {
				n += len(a.Label) + len(": ; ") + len(v)
			}
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("<html><title>")
	b.WriteString(s.ifc.Source)
	b.WriteString(" results</title><body><p>Found ")
	b.WriteString(count)
	b.WriteString(" results matching your search.</p><ul>")
	for _, r := range listed {
		b.WriteString("<li>")
		for i, a := range s.ifc.Attributes {
			if v := s.cols[i].value(r); v != "" {
				b.WriteString(a.Label)
				b.WriteString(": ")
				b.WriteString(v)
				b.WriteString("; ")
			}
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul></body></html>")
	return b.String()
}

// value returns record r's value, or "" when the column has none.
func (c *column) value(r int) string {
	if len(c.vals) == 0 {
		return ""
	}
	return c.vals[c.rows[r]]
}

var errorTemplates = []string{
	"<html><body><p>Error: %s.</p></body></html>",
	"<html><body><p>We are sorry: %s. Please try again.</p></body></html>",
	"<html><body><p>No results found. %s.</p></body></html>",
}

func renderError(msg string) string {
	return fmt.Sprintf(errorTemplates[int(hash32(msg))%len(errorTemplates)], msg)
}

// The fixed error pages, rendered once.
var (
	pageUnknownField    = renderError("unknown field")
	pagePartialRejected = renderError("please complete all required fields before submitting")
	pageNoResults       = renderError("sorry, no results were found matching your search")
)

// Interface returns the interface this source serves.
func (s *Source) Interface() *schema.Interface { return s.ifc }

// FormPage renders the source's query interface as the HTML form page a
// crawler would fetch; htmlform.Extract recovers the interface from it.
func (s *Source) FormPage() string { return htmlform.Render(s.ifc) }

// AcceptsPartialQueries reports whether the source tolerates unfilled
// attributes.
func (s *Source) AcceptsPartialQueries() bool { return s.partialOK }

func containsFold(list []string, v string) bool {
	for _, x := range list {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}

func parseNumber(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.ReplaceAll(s, ",", "")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

const fnvOffset uint32 = 2166136261

func hash32(s string) uint32 { return fnv32(fnvOffset, s) }

// fnv32 continues the FNV-1a hash h over s, so hashing the parts of a
// key in turn equals hashing their concatenation.
func fnv32(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
