// Package dataset deterministically reconstructs an ICQ-style evaluation
// dataset from the domain knowledge bases: five domains, a configurable
// number of query interfaces per domain, label variants spanning the
// syntactic forms the paper discusses, and instance-presence rates
// calibrated toward Table 1.
//
// The original ICQ dataset (100 hand-collected interfaces from 2003) is
// not available; this generator is the documented substitution. Because
// interfaces and gold matches derive from the same concept layer, the
// gold standard is exact by construction.
package dataset

import (
	"fmt"
	"math/rand"

	"webiq/internal/fnv1a"
	"webiq/internal/kb"
	"webiq/internal/schema"
)

// Config controls dataset generation.
type Config struct {
	// Interfaces is the number of query interfaces per domain (the paper
	// uses 20).
	Interfaces int
	// Seed drives all random choices; equal seeds give byte-identical
	// datasets.
	Seed int64
	// MinAttrs is the minimum number of attributes per interface.
	MinAttrs int
	// PredefMin/PredefMax bound how many predefined instances a
	// selection-list attribute exposes.
	PredefMin, PredefMax int
	// CrossRegionRate is the probability a predefined value is drawn
	// from outside the interface's regional group. The default of zero
	// keeps regional instance sets disjoint, reproducing the paper's
	// observation that matching attributes often have dissimilar
	// instances (NA vs EU airlines).
	CrossRegionRate float64
}

// DefaultConfig mirrors the paper's dataset scale.
func DefaultConfig() Config {
	return Config{Interfaces: 20, Seed: 1, MinAttrs: 2, PredefMin: 6, PredefMax: 12}
}

// Generate builds the dataset for one domain.
func Generate(d *kb.Domain, cfg Config) *schema.Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(fnv1a.String(d.Key))))
	ds := &schema.Dataset{
		Domain:        d.Key,
		EntityName:    d.EntityName,
		DomainKeyword: d.DomainKeyword,
	}
	for i := 0; i < cfg.Interfaces; i++ {
		ifc := generateInterface(d, cfg, rng, i)
		ds.Interfaces = append(ds.Interfaces, ifc)
	}
	return ds
}

// GenerateAll builds datasets for all five domains.
func GenerateAll(cfg Config) []*schema.Dataset {
	var out []*schema.Dataset
	for _, d := range kb.Domains() {
		out = append(out, Generate(d, cfg))
	}
	return out
}

func generateInterface(d *kb.Domain, cfg Config, rng *rand.Rand, idx int) *schema.Interface {
	ifcID := fmt.Sprintf("%s/if%02d", d.Key, idx)
	ifc := &schema.Interface{
		ID:     ifcID,
		Domain: d.Key,
		Source: fmt.Sprintf("%s-source-%02d", d.Key, idx),
	}
	// Each interface has a regional bias: predefined lists draw mostly
	// from one instance group. This reproduces the "Airline lists North
	// American carriers, Carrier lists European ones" phenomenon.
	region := idx % 2

	for {
		ifc.Attributes = ifc.Attributes[:0]
		attrIdx := 0
		for _, c := range d.Concepts {
			if rng.Float64() > c.Presence {
				continue
			}
			labels := c.Labels
			if c.GroupLabels != nil {
				labels = c.GroupLabels[region%len(c.GroupLabels)]
			}
			a := &schema.Attribute{
				ID:          fmt.Sprintf("%s/a%d", ifcID, attrIdx),
				InterfaceID: ifcID,
				Label:       pickLabel(labels, rng),
				ConceptID:   c.ID,
			}
			if rng.Float64() < c.PredefProb {
				a.Instances = pickInstances(c, cfg, rng, region)
			}
			ifc.Attributes = append(ifc.Attributes, a)
			attrIdx++
		}
		if len(ifc.Attributes) >= cfg.MinAttrs {
			break
		}
	}
	return ifc
}

// pickLabel samples a label variant by weight.
func pickLabel(labels []kb.LabelVariant, rng *rand.Rand) string {
	var total float64
	for _, l := range labels {
		total += l.Weight
	}
	r := rng.Float64() * total
	for _, l := range labels {
		r -= l.Weight
		if r <= 0 {
			return l.Text
		}
	}
	return labels[len(labels)-1].Text
}

// pickInstances samples the predefined instance list for an attribute.
// String concepts draw ~90% from the interface's regional group; numeric
// concepts sample from the numeric spec.
func pickInstances(c *kb.Concept, cfg Config, rng *rand.Rand, region int) []string {
	n := cfg.PredefMin
	if cfg.PredefMax > cfg.PredefMin {
		n += rng.Intn(cfg.PredefMax - cfg.PredefMin + 1)
	}
	if c.Numeric != nil {
		return c.Numeric.Sample(rng, n)
	}
	primary := c.Groups[region%len(c.Groups)]
	var pool, alt []string
	pool = append(pool, primary...)
	for gi, g := range c.Groups {
		if gi != region%len(c.Groups) {
			alt = append(alt, g...)
		}
	}
	// The list draws from the primary regional pool; without this clamp a
	// small pool would force spilling into other regions' vocabulary and
	// destroy the regional dissimilarity the dataset is built to exhibit.
	if n > len(pool) {
		n = len(pool)
	}
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		var cand string
		if len(alt) > 0 && cfg.CrossRegionRate > 0 && rng.Float64() < cfg.CrossRegionRate {
			cand = alt[rng.Intn(len(alt))]
		} else {
			cand = pool[rng.Intn(len(pool))]
		}
		if seen[cand] {
			continue
		}
		seen[cand] = true
		out = append(out, cand)
	}
	return out
}
