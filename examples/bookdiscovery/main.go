// Bookdiscovery demonstrates the Surface component in isolation
// (Section 2 of the paper): label syntax analysis, extraction-query
// formulation, snippet extraction, outlier removal, and PMI-based Web
// validation — for attributes of a bookstore interface.
//
// Run with: go run ./examples/bookdiscovery
package main

import (
	"context"
	"fmt"

	"webiq/internal/kb"
	"webiq/internal/nlp"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/webiq"
)

func main() {
	engine := surfaceweb.NewEngine()
	surfaceweb.BuildCorpus(engine, kb.Domains(), surfaceweb.DefaultCorpusConfig())
	fmt.Printf("Surface Web ready: %d pages\n\n", engine.NumDocs())

	ifc := &schema.Interface{
		ID: "store", Domain: "book", Source: "example-bookstore",
		Attributes: []*schema.Attribute{
			{ID: "store/title", InterfaceID: "store", Label: "Title"},
			{ID: "store/author", InterfaceID: "store", Label: "Author"},
			{ID: "store/publisher", InterfaceID: "store", Label: "Publisher"},
			{ID: "store/isbn", InterfaceID: "store", Label: "ISBN"},
		},
	}
	ds := &schema.Dataset{
		Domain: "book", EntityName: "book", DomainKeyword: "book",
		Interfaces: []*schema.Interface{ifc},
	}

	cfg := webiq.DefaultConfig()
	v := webiq.NewValidator(engine, cfg)
	surface := webiq.NewSurface(engine, v, cfg)

	a := ifc.AttributeByID("store/author")

	// Step 1: label syntax analysis.
	ls := nlp.AnalyzeLabel(a.Label)
	fmt.Printf("Label %q analyzed as %s\n", a.Label, ls.Form)

	// Step 2: extraction queries (the paper's running example yields
	// `"authors such as" +book +title +isbn`).
	np := ls.NPs[0]
	fmt.Println("\nExtraction queries:")
	queries := webiq.FormulateQueries(np, ds.EntityName, ds.DomainKeyword,
		[]string{"Title", "ISBN"}, cfg)
	for _, q := range queries {
		fmt.Printf("  [%s] %s\n", q.Pattern, q.Query)
	}

	// Step 3: snippets and raw candidates.
	fmt.Println("\nSample snippets and extracted candidates:")
	shown := 0
	var tokens []nlp.TaggedToken
	for _, q := range queries {
		for _, snip := range engine.Search(q.Query, 2) {
			// The engine returns each snippet tagged; extraction reads
			// those tags instead of re-tagging the text.
			tokens = snip.Tokens(tokens[:0])
			cands := webiq.ExtractFromTokens(q, tokens)
			if len(cands) == 0 || shown >= 4 {
				continue
			}
			shown++
			fmt.Printf("  snippet: %.90s...\n    -> %v\n", snip.Text, cands)
		}
	}

	// Step 4: full pipeline (extraction + outlier removal + validation).
	fmt.Println("\nDiscovered instances per attribute:")
	for _, attr := range ifc.Attributes {
		got := surface.DiscoverInstancesCtx(context.Background(), attr, ifc, ds)
		fmt.Printf("  %-10s -> %d instances %v\n", attr.Label, len(got), head(got, 6))
	}

	fmt.Printf("\nSearch-engine usage: %d queries, %.1f simulated minutes\n",
		engine.QueryCount(), engine.VirtualTime().Minutes())
}

func head(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
