// Quickstart: reproduce the paper's Figure 1 — two airfare query
// interfaces Qa and Qb — acquire instances for their attributes with
// WebIQ, and match them.
//
// Qa: From city, Departure date, Airline (NA instances), Class of
// service, Number of passengers.
// Qb: Departure city, Departure on, Carrier (EU instances), Cabin,
// Adults.
//
// At baseline, Airline/Carrier cannot match (no common label word, and
// the instance lists are regionally disjoint). After WebIQ gathers and
// borrows instances, they do.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/unify"
	"webiq/internal/webiq"
)

func main() {
	// Figure 1's two interfaces, built by hand.
	qa := &schema.Interface{
		ID: "qa", Domain: "airfare", Source: "figure-1-Qa",
		Attributes: []*schema.Attribute{
			{ID: "qa/a1", InterfaceID: "qa", Label: "From city", ConceptID: "airfare.origin_city"},
			{ID: "qa/a2", InterfaceID: "qa", Label: "Departure date", ConceptID: "airfare.departure_date"},
			{ID: "qa/a3", InterfaceID: "qa", Label: "Number of passengers", ConceptID: "airfare.passengers",
				Instances: []string{"1", "2", "3", "4", "5", "6"}},
			{ID: "qa/a4", InterfaceID: "qa", Label: "Class of service", ConceptID: "airfare.cabin_class",
				Instances: []string{"Economy", "Business", "First Class"}},
			{ID: "qa/a5", InterfaceID: "qa", Label: "Airline", ConceptID: "airfare.airline",
				Instances: []string{"Air Canada", "American", "Delta", "United", "Northwest", "Southwest"}},
		},
	}
	qb := &schema.Interface{
		ID: "qb", Domain: "airfare", Source: "figure-1-Qb",
		Attributes: []*schema.Attribute{
			{ID: "qb/b1", InterfaceID: "qb", Label: "Departure city", ConceptID: "airfare.origin_city"},
			{ID: "qb/b2", InterfaceID: "qb", Label: "Departure on", ConceptID: "airfare.departure_date"},
			{ID: "qb/b3", InterfaceID: "qb", Label: "Carrier", ConceptID: "airfare.airline",
				Instances: []string{"Aer Lingus", "British Airways", "Lufthansa", "Air France", "KLM", "Iberia"}},
			{ID: "qb/b4", InterfaceID: "qb", Label: "Cabin", ConceptID: "airfare.cabin_class",
				Instances: []string{"Economy", "Premium Economy", "Business"}},
			{ID: "qb/b5", InterfaceID: "qb", Label: "Adults", ConceptID: "airfare.passengers",
				Instances: []string{"1", "2", "3", "4"}},
		},
	}
	ds := &schema.Dataset{
		Domain: "airfare", EntityName: "flight", DomainKeyword: "airfare",
		Interfaces: []*schema.Interface{qa, qb},
	}

	// The substrates: a synthetic Surface Web and Deep-Web sources.
	fmt.Println("Building the Surface Web and Deep-Web sources...")
	engine := surfaceweb.NewEngine()
	surfaceweb.BuildCorpus(engine, kb.Domains(), surfaceweb.DefaultCorpusConfig())
	dom := kb.DomainByKey("airfare")
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	_ = dataset.DefaultConfig() // (the generator is unused here: interfaces are hand-built)

	// Baseline matching: no instances for A1/B1, A2/B2; Airline/Carrier
	// dissimilar.
	match := func(header string) {
		res := matcher.New(matcher.DefaultConfig()).Match(ds)
		m := matcher.Evaluate(res.Pairs, ds.GoldPairs())
		fmt.Printf("\n%s  (P=%.2f R=%.2f F1=%.2f)\n", header, m.Precision, m.Recall, m.F1)
		for _, c := range res.Clusters {
			if len(c) >= 2 {
				var labels []string
				for _, id := range c {
					for _, ifc := range ds.Interfaces {
						if a := ifc.AttributeByID(id); a != nil {
							labels = append(labels, fmt.Sprintf("%s=%q", id, a.Label))
						}
					}
				}
				fmt.Println("  match:", labels)
			}
		}
	}
	match("Baseline matches (labels + predefined instances only):")

	// WebIQ acquisition.
	rep := webiq.NewPipeline(engine, pool, webiq.DefaultConfig(), webiq.AllComponents()).AcquireAllCtx(context.Background(), ds)

	fmt.Println("\nAcquired instances:")
	for _, o := range rep.Outcomes {
		if o.Acquired == 0 {
			continue
		}
		a := findAttr(ds, o.AttrID)
		show := a.Acquired
		if len(show) > 6 {
			show = show[:6]
		}
		fmt.Printf("  %-8s %-22q via=%-22v %v...\n", o.AttrID, o.Label, o.Methods, show)
	}

	match("Matches after WebIQ:")

	// The downstream artifact: the uniform query interface.
	res := matcher.New(matcher.DefaultConfig()).Match(ds)
	u := unify.Build(ds, res)
	fmt.Println("\nUnified query interface:")
	for _, ua := range u.Attributes {
		show := ua.Instances
		if len(show) > 5 {
			show = show[:5]
		}
		fmt.Printf("  %-22q coverage=%.0f%%  instances=%v\n", ua.Label, 100*ua.Coverage, show)
	}
}

func findAttr(ds *schema.Dataset, id string) *schema.Attribute {
	for _, ifc := range ds.Interfaces {
		if a := ifc.AttributeByID(id); a != nil {
			return a
		}
	}
	return nil
}
