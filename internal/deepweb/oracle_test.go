package deepweb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/kb"
	"webiq/internal/schema"
)

// The reference source: the backing table as one map per record, a
// full-table scan per probe that lower-cases every cell it compares,
// and a fmt-built result page. It is built from the same seed as
// BuildPool, so its table holds the same values, and every probe page
// of a Source must equal the reference's byte for byte.

type refPool struct {
	cfg         Config
	sources     map[string]*refSource
	queries     int
	virtualTime time.Duration
}

type refSource struct {
	ifc       *schema.Interface
	concepts  map[string]*kb.Concept
	table     []map[string]string
	partialOK bool
	pool      *refPool
}

func buildRefPool(ds *schema.Dataset, dom *kb.Domain, cfg Config) *refPool {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(hash32(ds.Domain))))
	conceptByID := map[string]*kb.Concept{}
	for _, c := range dom.Concepts {
		conceptByID[c.ID] = c
	}
	p := &refPool{cfg: cfg, sources: map[string]*refSource{}}
	for _, ifc := range ds.Interfaces {
		s := &refSource{
			ifc:       ifc,
			concepts:  map[string]*kb.Concept{},
			partialOK: rng.Float64() < cfg.PartialQueryProb,
			pool:      p,
		}
		for _, a := range ifc.Attributes {
			s.concepts[a.ID] = conceptByID[a.ConceptID]
		}
		s.table = refTable(ifc, s.concepts, cfg.Records, rng)
		p.sources[ifc.ID] = s
	}
	return p
}

func refTable(ifc *schema.Interface, concepts map[string]*kb.Concept, n int, rng *rand.Rand) []map[string]string {
	rows := make([]map[string]string, n)
	pools := map[string][]string{}
	for _, a := range ifc.Attributes {
		c := concepts[a.ID]
		if c == nil {
			continue
		}
		if c.Numeric != nil {
			pools[a.ID] = c.Numeric.Sample(rng, 50)
		} else {
			pools[a.ID] = c.AllInstances()
		}
	}
	for i := range rows {
		row := map[string]string{}
		for _, a := range ifc.Attributes {
			pool := pools[a.ID]
			if len(pool) == 0 {
				continue
			}
			row[a.ID] = pool[rng.Intn(len(pool))]
		}
		rows[i] = row
	}
	return rows
}

func (p *refPool) charge(key string) {
	p.queries++
	lat := p.cfg.MinLatency
	if span := p.cfg.MaxLatency - p.cfg.MinLatency; span > 0 {
		var h uint32 = 2166136261
		for i := 0; i < len(key); i++ {
			h ^= uint32(key[i])
			h *= 16777619
		}
		lat += time.Duration(int64(h) % int64(span))
	}
	p.virtualTime += lat
}

func (s *refSource) Probe(attrID, value string) string {
	s.pool.charge(s.ifc.ID + "|" + attrID + "|" + value)
	attr := s.ifc.AttributeByID(attrID)
	if attr == nil {
		return renderError("unknown field")
	}
	if !s.partialOK {
		return renderError("please complete all required fields before submitting")
	}
	if attr.HasInstances() && !containsFold(attr.Instances, value) {
		return renderError("invalid selection for " + attr.Label)
	}
	matches := s.match(attrID, value)
	if len(matches) == 0 {
		return renderError("sorry, no results were found matching your search")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<html><title>%s results</title><body>", s.ifc.Source)
	fmt.Fprintf(&b, "<p>Found %d results matching your search.</p><ul>", len(matches))
	for i, row := range matches {
		if i >= 5 {
			break
		}
		b.WriteString("<li>")
		for _, a := range s.ifc.Attributes {
			if v := row[a.ID]; v != "" {
				fmt.Fprintf(&b, "%s: %s; ", a.Label, v)
			}
		}
		b.WriteString("</li>")
	}
	b.WriteString("</ul></body></html>")
	return b.String()
}

func (s *refSource) match(attrID, value string) []map[string]string {
	var out []map[string]string
	c := s.concepts[attrID]
	if c != nil && c.Numeric != nil {
		v, ok := parseNumber(value)
		if !ok {
			return nil
		}
		lo, hi := float64(c.Numeric.Min), float64(c.Numeric.Max)
		if c.Numeric.Decimals > 0 {
			scale := 1.0
			for i := 0; i < c.Numeric.Decimals; i++ {
				scale *= 10
			}
			lo, hi = lo/scale, hi/scale
		}
		if v < lo || v > hi {
			return nil
		}
		for _, row := range s.table {
			if rv, ok := parseNumber(row[attrID]); ok && rv <= v {
				if out = append(out, row); len(out) >= 10 {
					break
				}
			}
		}
		return out
	}
	want := strings.ToLower(strings.TrimSpace(value))
	if want == "" {
		return nil
	}
	for _, row := range s.table {
		if strings.ToLower(row[attrID]) == want {
			if out = append(out, row); len(out) >= 10 {
				break
			}
		}
	}
	return out
}

// probeEdgeValues are the edge strings every attribute is probed with,
// besides its concept's vocabulary and its predefined values.
var probeEdgeValues = []string{
	"", "  Boston ", "BOSTON", "$1,000", "1,000", "1e9", "-1",
	"99999999999", "-99999999999", "0", "NaN", "not a number",
}

// poolPair builds a Source pool and its reference from the same seed.
// Every source accepts partial queries, so every probe reaches the
// table (TestPartialQueryRejection covers the rule).
func poolPair(domain string) (*Pool, *refPool, *schema.Dataset) {
	dom := kb.DomainByKey(domain)
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	cfg := DefaultConfig()
	cfg.PartialQueryProb = 1
	return BuildPool(ds, dom, cfg), buildRefPool(ds, dom, cfg), ds
}

// TestProbeMatchesRowScan pins every probe page of the columnar
// sources to the row-map scan: the 5 paper domains, every attribute,
// probed with its concept's vocabulary, every distinct predefined value
// of the domain, and the edge strings, plus an unknown attribute ID.
// Probe accounting must agree as well.
func TestProbeMatchesRowScan(t *testing.T) {
	for _, dom := range kb.Domains() {
		pool, ref, ds := poolPair(dom.Key)
		concepts := map[string]*kb.Concept{}
		for _, c := range dom.Concepts {
			concepts[c.ID] = c
		}
		var predefined []string
		seen := map[string]bool{}
		for _, a := range ds.AllAttributes() {
			for _, v := range a.Instances {
				if !seen[v] {
					seen[v] = true
					predefined = append(predefined, v)
				}
			}
		}
		probes, hits := 0, 0
		for _, ifc := range ds.Interfaces {
			src, rsrc := pool.Source(ifc.ID), ref.sources[ifc.ID]
			check := func(attrID, v string) {
				t.Helper()
				probes++
				got, want := src.Probe(attrID, v), rsrc.Probe(attrID, v)
				if got != want {
					t.Fatalf("%s %s=%q:\n got %s\nwant %s", ifc.ID, attrID, v, got, want)
				}
				if AnalyzeResponse(got) {
					hits++
				}
			}
			for _, a := range ifc.Attributes {
				var vocab []string
				if c := concepts[a.ConceptID]; c != nil {
					vocab = c.AllInstances()
				}
				for _, vals := range [][]string{vocab, predefined, probeEdgeValues} {
					for _, v := range vals {
						check(a.ID, v)
					}
				}
			}
			check("bogus/attr", "Boston")
		}
		if pool.QueryCount() != ref.queries || pool.VirtualTime() != ref.virtualTime {
			t.Errorf("%s: accounting %d probes / %v, reference %d / %v",
				dom.Key, pool.QueryCount(), pool.VirtualTime(), ref.queries, ref.virtualTime)
		}
		if pool.QueryCount() != probes {
			t.Errorf("%s: QueryCount = %d, want %d", dom.Key, pool.QueryCount(), probes)
		}
		if hits == 0 || hits == probes {
			t.Errorf("%s: %d of %d probes succeeded; the table must both match and miss", dom.Key, hits, probes)
		}
		t.Logf("%s: %d probes, %d succeeded", dom.Key, probes, hits)
	}
}

// FuzzProbe probes an attribute (by index over the domain's attributes)
// with an arbitrary value; the page must equal the reference scan's.
func FuzzProbe(f *testing.F) {
	pool, ref, ds := poolPair("auto")
	attrs := ds.AllAttributes()
	for i, v := range probeEdgeValues {
		f.Add(i, v)
	}
	f.Add(0, "Honda")
	f.Add(3, "$30,000")
	f.Add(-1, "x")
	f.Fuzz(func(t *testing.T, i int, v string) {
		attrID := "bogus/attr"
		a := attrs[(i%len(attrs)+len(attrs))%len(attrs)]
		if i >= 0 {
			attrID = a.ID
		}
		got := pool.Source(a.InterfaceID).Probe(attrID, v)
		if want := ref.sources[a.InterfaceID].Probe(attrID, v); got != want {
			t.Fatalf("%s=%q:\n got %s\nwant %s", attrID, v, got, want)
		}
	})
}
