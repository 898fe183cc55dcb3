// Package synth generates synthetic evaluation domains beyond the
// paper's five, sweeping the axes that related work identifies as hard
// for interface matching and instance acquisition: instance-presence
// rate (25–75%), corpus noise, abbreviated and prepositional-phrase
// labels, ambiguous attributes shared across concepts ("zip"), and
// unit-bearing numeric fields.
//
// Each scenario is a fully-formed *kb.Domain plus the corpus and
// dataset configurations that realize its axes, so synthetic domains
// flow through the exact same pipeline as the paper's: dataset
// generation, Surface-Web corpus construction, Deep-Web source pools,
// acquisition, and matching. The gold standard stays exact by
// construction (attributes carry their concept IDs), which is what the
// evaluation harness in internal/eval scores against.
//
// Generation is fully deterministic in (count, seed): equal inputs give
// byte-identical domains, so a committed quality baseline stays
// comparable across machines.
//
// World assembles a whole seeded world — the corpus, the datasets and
// the Deep-Web pools of the paper domains and any sweep scenarios — so
// the seed fan-out and the corpus stream order live in one place.
package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"webiq/internal/dataset"
	"webiq/internal/kb"
	"webiq/internal/surfaceweb"
)

// LabelStyle selects how a scenario's concepts label themselves.
type LabelStyle string

// Label styles swept by the generator. Noun-phrase labels are the easy
// case the extraction patterns key on; abbreviated labels strain label
// similarity during matching; prepositional and verb-form labels carry
// no noun phrase, so the corpus generator plants no supporting pages
// and Surface extraction fails — forcing the borrowing components, as
// in the paper's airfare domain.
const (
	StyleNoun   LabelStyle = "noun"
	StyleAbbrev LabelStyle = "abbrev"
	StylePrep   LabelStyle = "prep"
	StyleMixed  LabelStyle = "mixed"
)

// Scenario is one synthetic evaluation domain with the knobs that
// realize its difficulty axes.
type Scenario struct {
	// Index is the scenario's position in the sweep (0-based).
	Index int
	// Name is the scenario's compact description, e.g.
	// "synth03-drone-p50-noise2-prep+zip".
	Name string
	// Domain is the generated domain; Domain.Key == Name's first
	// segment ("synth03-drone").
	Domain *kb.Domain
	// PresenceRate is the swept instance-presence rate: the probability
	// an attribute exposes a predefined instance list (0.25–0.75).
	PresenceRate float64
	// NoiseLevel in {0,1,2} scales corpus confusion/junk rates from the
	// defaults (0 = half, 1 = default, 2 = double).
	NoiseLevel int
	// Style is the label style of the scenario's concepts.
	Style LabelStyle
	// Ambiguous adds a "zip" concept whose values are postal codes —
	// the paper's ambiguous attribute that PMI validation struggles
	// with (WebPresence near zero).
	Ambiguous bool
	// Units adds a unit-bearing numeric concept ("Weight (lbs)"), the
	// measurement-unit difficulty the paper reports for real estate.
	Units bool
	// Interfaces is the dataset size (smaller than the paper's 20 so a
	// 20-domain sweep stays CI-cheap).
	Interfaces int
}

// DatasetConfig returns the dataset-generation configuration realizing
// the scenario.
func (sc *Scenario) DatasetConfig(seed int64) dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.Seed = seed
	cfg.Interfaces = sc.Interfaces
	return cfg
}

// CorpusConfig returns the corpus configuration realizing the
// scenario's noise axis. Page counts are reduced from the paper
// domains' defaults so a multi-domain sweep stays fast; the noise level
// scales the confusion and junk rates.
func (sc *Scenario) CorpusConfig(seed int64) surfaceweb.CorpusConfig {
	cfg := surfaceweb.DefaultCorpusConfig()
	cfg.Seed = seed ^ int64(0x5e15+sc.Index)
	cfg.PagesPerConcept = 40
	cfg.NoisePages = 60
	scale := []float64{0.5, 1, 2}[sc.NoiseLevel%3]
	cfg.ConfusionRate *= scale
	cfg.JunkRate *= scale
	return cfg
}

// entities is the pool of synthetic domain subjects. Each gets a
// (singular) entity name and a domain keyword.
var entities = []struct{ entity, keyword string }{
	{"camera", "cameras"},
	{"laptop", "laptops"},
	{"boat", "boats"},
	{"bicycle", "bicycles"},
	{"watch", "watches"},
	{"guitar", "guitars"},
	{"drone", "drones"},
	{"tablet", "tablets"},
	{"printer", "printers"},
	{"telescope", "telescopes"},
	{"motorcycle", "motorcycles"},
	{"keyboard", "keyboards"},
	{"monitor", "monitors"},
	{"speaker", "speakers"},
	{"scooter", "scooters"},
	{"projector", "projectors"},
	{"microphone", "microphones"},
	{"treadmill", "treadmills"},
	{"espresso machine", "espresso machines"},
	{"lawn mower", "lawn mowers"},
}

// Sweep generates n scenarios deterministically from the seed, cycling
// the difficulty axes so any prefix of the sweep still covers every
// axis: presence rate steps 25%→75% in fifths, noise level cycles
// 0/1/2, label style cycles noun/abbrev/prep/mixed, and the ambiguous
// and unit-bearing extras toggle on their own periods.
func Sweep(n int, seed int64) []*Scenario {
	out := make([]*Scenario, 0, n)
	for i := 0; i < n; i++ {
		sc := &Scenario{
			Index:        i,
			PresenceRate: 0.25 + 0.125*float64(i%5),
			NoiseLevel:   i % 3,
			Style:        []LabelStyle{StyleNoun, StyleAbbrev, StylePrep, StyleMixed}[i%4],
			Ambiguous:    i%2 == 0,
			Units:        i%3 == 0,
			Interfaces:   8,
		}
		ent := entities[i%len(entities)]
		key := fmt.Sprintf("synth%02d-%s", i, strings.ReplaceAll(ent.entity, " ", "-"))
		sc.Name = fmt.Sprintf("%s-p%.0f-noise%d-%s%s%s",
			key, sc.PresenceRate*100, sc.NoiseLevel, sc.Style,
			flag("+zip", sc.Ambiguous), flag("+units", sc.Units))
		rng := rand.New(rand.NewSource(seed ^ int64(i)<<8 ^ 0x517e))
		sc.Domain = buildDomain(key, ent.entity, ent.keyword, sc, rng)
		out = append(out, sc)
	}
	return out
}

func flag(s string, on bool) string {
	if on {
		return s
	}
	return ""
}

// Scenarios with the same index always build the same domain, so a
// sweep can be regenerated for inspection (webgen -what scenarios).

// buildDomain assembles the scenario's concept set. Every domain gets a
// core of findable concepts with generated disjoint vocabularies, plus
// the scenario's extras.
func buildDomain(key, entity, keyword string, sc *Scenario, rng *rand.Rand) *kb.Domain {
	d := &kb.Domain{
		Key:           key,
		DisplayName:   capitalize(entity),
		EntityName:    entity,
		DomainKeyword: keyword,
	}
	used := map[string]bool{}
	vocab := func(n int, suffix string) []string { return properNames(rng, n, suffix, used) }
	p := sc.PresenceRate

	// Brand: two regional groups with divergent group labels — the
	// paper's Airline/Carrier phenomenon, on every synthetic domain.
	d.Concepts = append(d.Concepts, &kb.Concept{
		Name: "brand", Type: kb.String,
		Labels: labelSet(sc.Style,
			[]string{"Brand", "Manufacturer", "Maker"},
			[]string{"Mfr", "Brand"},
			[]string{"Made by", "From maker"}),
		GroupLabels: [][]kb.LabelVariant{
			{lv("Brand", 4), lv("Maker", 1)},
			{lv("Manufacturer", 4)},
		},
		Groups:   [][]string{vocab(14, ""), vocab(14, "")},
		Presence: 1.0, PredefProb: p, Findable: true, WebPresence: 1.0,
	})
	// Model: one vocabulary, mostly free-text (the pervasive
	// instance-less case acquisition targets).
	d.Concepts = append(d.Concepts, &kb.Concept{
		Name: "model", Type: kb.String,
		Labels: labelSet(sc.Style,
			[]string{"Model", "Model name"},
			[]string{"Mdl", "Model no"},
			[]string{"Search for"}),
		Groups:   [][]string{vocab(20, "")},
		Presence: 1.0, PredefProb: p * 0.5, Findable: true, WebPresence: 0.95,
	})
	// Category: grouped vocabulary with divergent labels.
	d.Concepts = append(d.Concepts, &kb.Concept{
		Name: "category", Type: kb.String,
		Labels: labelSet(sc.Style,
			[]string{"Category", "Type", "Style"},
			[]string{"Cat", "Type"},
			[]string{"Type of " + entity}),
		Groups:   [][]string{vocab(10, " Series"), vocab(10, " Series")},
		Presence: 0.85, PredefProb: p, Findable: true, WebPresence: 0.9,
	})
	// Seller city: reuses the shared city vocabulary — realistic
	// cross-domain value overlap in the shared corpus.
	d.Concepts = append(d.Concepts, &kb.Concept{
		Name: "city", Type: kb.String,
		Labels: labelSet(sc.Style,
			[]string{"City", "Location"},
			[]string{"Loc", "City"},
			[]string{"Located in", "Near"}),
		Groups:   [][]string{kb.CitiesNA, kb.CitiesEU},
		Presence: 0.7, PredefProb: p * 0.6, Findable: true, WebPresence: 0.85,
	})
	// Price: monetary numeric.
	d.Concepts = append(d.Concepts, &kb.Concept{
		Name: "price", Type: kb.Monetary,
		Labels: labelSet(sc.Style,
			[]string{"Price", "Max price", "Price range"},
			[]string{"Max $", "Price"},
			[]string{"Up to"}),
		Numeric:  &kb.NumericSpec{Min: 50, Max: 5000, Step: 50, Monetary: true},
		Presence: 0.8, PredefProb: p, Findable: true, WebPresence: 0.7,
	})
	// Model year: plain integer.
	d.Concepts = append(d.Concepts, &kb.Concept{
		Name: "year", Type: kb.Integer,
		Labels: labelSet(sc.Style,
			[]string{"Year", "Model year"},
			[]string{"Yr", "Year"},
			[]string{"Newer than"}),
		Numeric:  &kb.NumericSpec{Min: 1998, Max: 2006, Step: 1},
		Presence: 0.6, PredefProb: p, Findable: true, WebPresence: 0.6,
	})
	if sc.Units {
		// Unit-bearing numeric field: the unit lives in the label, so
		// extraction queries carry it and mostly fail — the paper's
		// measurement-unit difficulty (square feet, acreage).
		d.Concepts = append(d.Concepts, &kb.Concept{
			Name: "weight", Type: kb.Integer,
			Labels: []kb.LabelVariant{
				lv("Weight (lbs)", 2), lv("Max weight (lbs)", 1), lv("Weight", 1),
			},
			Numeric:  &kb.NumericSpec{Min: 1, Max: 200, Step: 1},
			Presence: 0.5, PredefProb: p * 0.5, Findable: false, WebPresence: 0.08,
		})
	}
	if sc.Ambiguous {
		// Ambiguous "zip": values that look like many other numerics
		// and barely occur on the Web — acquisition should leave it
		// alone rather than pollute it.
		d.Concepts = append(d.Concepts, &kb.Concept{
			Name: "zip", Type: kb.String,
			Labels: []kb.LabelVariant{
				lv("Zip", 2), lv("Zip code", 2), lv("Near zip", 1),
			},
			Groups:   [][]string{kb.ZipCodes},
			Presence: 0.5, PredefProb: 0, Findable: false, WebPresence: 0.02,
		})
	}
	// Keyword: the never-findable generic attribute present everywhere.
	d.Concepts = append(d.Concepts, &kb.Concept{
		Name: "keyword", Type: kb.String,
		Labels:   []kb.LabelVariant{lv("Keywords", 2), lv("Keyword", 1)},
		Groups:   [][]string{kb.NoiseWords},
		Presence: 0.4, PredefProb: 0, Findable: false, WebPresence: 0.05,
	})
	finish(d)
	return d
}

func lv(text string, w float64) kb.LabelVariant { return kb.LabelVariant{Text: text, Weight: w} }

// labelSet realizes the scenario's label style: noun keeps the
// noun-phrase variants, abbrev prefers the abbreviated ones, prep
// prefers prepositional/verb forms (no corpus support), and mixed
// blends all three so interfaces of one domain disagree maximally.
func labelSet(style LabelStyle, noun, abbrev, prep []string) []kb.LabelVariant {
	weight := func(texts []string, w float64) []kb.LabelVariant {
		out := make([]kb.LabelVariant, 0, len(texts))
		for i, t := range texts {
			// Earlier variants dominate slightly, like the paper domains.
			out = append(out, lv(t, w+float64(len(texts)-i)))
		}
		return out
	}
	switch style {
	case StyleAbbrev:
		return append(weight(abbrev, 3), weight(noun, 0.5)...)
	case StylePrep:
		return append(weight(prep, 3), weight(noun, 0.5)...)
	case StyleMixed:
		return append(append(weight(noun, 1), weight(abbrev, 1)...), weight(prep, 1)...)
	default:
		return weight(noun, 2)
	}
}

// Syllable pools for generated proper names. Two-part names ("Veltrix
// Orion") keep values multi-token, which exercises phrase handling in
// the corpus and the matcher's value similarity.
var (
	onsets  = []string{"Vel", "Zan", "Mar", "Tol", "Ken", "Bri", "Lum", "Dex", "Fen", "Gal", "Hax", "Ivo", "Jor", "Qui", "Ryn", "Sol", "Tav", "Ulm", "Wex", "Yor"}
	codas   = []string{"trix", "max", "on", "ex", "ia", "or", "us", "ell", "ix", "ar", "eon", "um", "is", "av", "ox"}
	seconds = []string{"Orion", "Atlas", "Nova", "Summit", "Vertex", "Delta", "Prime", "Apex", "Horizon", "Zephyr", "Pioneer", "Quartz", "Ridge", "Falcon", "Comet"}
)

// properNames draws n distinct generated names, disjoint from every
// name previously drawn for the same domain (the used set), so concepts
// within a domain never share vocabulary by accident.
func properNames(rng *rand.Rand, n int, suffix string, used map[string]bool) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		name := onsets[rng.Intn(len(onsets))] + codas[rng.Intn(len(codas))]
		if rng.Intn(2) == 0 {
			name += " " + seconds[rng.Intn(len(seconds))]
		}
		name += suffix
		if used[name] {
			continue
		}
		used[name] = true
		out = append(out, name)
	}
	return out
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// finish fills the derived concept fields, mirroring kb's internal
// finishDomain (unexported there).
func finish(d *kb.Domain) {
	for _, c := range d.Concepts {
		c.Domain = d.Key
		c.ID = d.Key + "." + strings.ReplaceAll(c.Name, " ", "_")
	}
}
