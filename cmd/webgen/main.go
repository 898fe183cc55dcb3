// Command webgen generates and inspects the synthetic substrates: the
// ICQ-style dataset, the Surface-Web corpus, and the synthetic
// evaluation scenarios swept by the quality harness.
//
//	webgen -list                                 # available modes and domains
//	webgen -what dataset -domain book            # dataset stats
//	webgen -what dataset -domain book -json d.json
//	webgen -what dataset -synth 5                # include synthetic sweep domains
//	webgen -what corpus                          # corpus stats
//	webgen -what corpus -query '"authors such as" +book'
//	webgen -what corpus -synth 5                 # the corpus eval searches with 5 sweep domains
//	webgen -what scenarios -synth 20             # the synthetic sweep table
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"webiq/internal/htmlform"
	"webiq/internal/kb"
	"webiq/internal/synth"
)

// whats are the generation modes, with what each one produces.
var whats = []struct{ name, desc string }{
	{"dataset", "query-interface dataset statistics (per domain)"},
	{"corpus", "Surface-Web corpus statistics and ad-hoc queries"},
	{"form", "one rendered HTML query interface"},
	{"scenarios", "the synthetic evaluation sweep (internal/synth)"},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("webgen: ")

	what := flag.String("what", "dataset", "what to generate: dataset, corpus, form, or scenarios")
	domainFlag := flag.String("domain", "", "restrict dataset and form output to one domain (default: all); the corpus is always the whole world")
	seed := flag.Int64("seed", 1, "random seed")
	jsonOut := flag.String("json", "", "with -what dataset: write the generated dataset as JSON to this file (needs -domain)")
	query := flag.String("query", "", "with -what corpus: run this search query and show hits/snippets")
	scale := flag.Float64("scale", 1, "with -what corpus: multiply the page counts by this factor (e.g. 10 for a 10x corpus)")
	synthN := flag.Int("synth", 0, "include this many synthetic sweep domains (scenarios mode defaults to 20)")
	list := flag.Bool("list", false, "print the available modes and domains, then exit")
	flag.Parse()

	if *list {
		printList()
		return
	}
	if !knownWhat(*what) {
		log.Fatalf("unknown -what %q (want %s; see -list)", *what, whatNames())
	}
	if *scale <= 0 {
		log.Fatalf("-scale must be positive, got %g", *scale)
	}
	if *synthN == 0 && *what == "scenarios" {
		*synthN = 20
	}
	scenarios := synth.Sweep(*synthN, *seed)
	world := synth.World{Seed: *seed, Scale: *scale, Domains: kb.Domains(), Scenarios: scenarios}

	domains := world.Domains
	if *domainFlag != "" {
		d := world.Domain(*domainFlag)
		if d == nil {
			log.Fatalf("unknown domain %q (see -list; synthetic keys need a matching -synth count)", *domainFlag)
		}
		domains = []*kb.Domain{d}
	} else {
		for _, sc := range scenarios {
			domains = append(domains, sc.Domain)
		}
	}
	if *jsonOut != "" && *what == "dataset" && len(domains) != 1 {
		log.Fatalf("-json writes one dataset: select its domain with -domain (%d selected)", len(domains))
	}

	switch *what {
	case "dataset":
		fmt.Printf("%-24s %5s %6s %9s %12s %12s\n",
			"Domain", "Ifcs", "Attrs", "Avg/Ifc", "IfcNoInst%", "AttrNoInst%")
		for _, d := range domains {
			ds := world.Dataset(d)
			st := ds.ComputeStats()
			fmt.Printf("%-24s %5d %6d %9.1f %12.0f %12.1f\n",
				d.Key, st.Interfaces, st.Attributes, st.AvgAttrs,
				st.PctInterfacesNoInst, st.PctAttrsNoInst)
			if *jsonOut != "" {
				f, err := os.Create(*jsonOut)
				if err != nil {
					log.Fatal(err)
				}
				if err := ds.WriteJSON(f); err != nil {
					log.Fatal(err)
				}
				f.Close()
				fmt.Printf("  -> %s\n", *jsonOut)
			}
		}
	case "corpus":
		engine := world.Corpus()
		fmt.Printf("Corpus: %d pages\n", engine.NumDocs())
		if *query != "" {
			fmt.Printf("NumHits(%s) = %d\n", *query, engine.NumHits(*query))
			for i, s := range engine.Search(*query, 5) {
				fmt.Printf("snippet %d (doc %d): %s\n", i+1, s.DocID, s.Text)
			}
		}
	case "form":
		ds := world.Dataset(domains[0])
		fmt.Print(htmlform.Render(ds.Interfaces[0]))
	case "scenarios":
		fmt.Printf("%-28s %8s %5s %-6s %3s %5s %4s %8s\n",
			"Domain", "Presence", "Noise", "Style", "Zip", "Units", "Ifcs", "Concepts")
		for _, sc := range scenarios {
			fmt.Printf("%-28s %7.0f%% %5d %-6s %3s %5s %4d %8d\n",
				sc.Domain.Key, sc.PresenceRate*100, sc.NoiseLevel, sc.Style,
				mark(sc.Ambiguous), mark(sc.Units), sc.Interfaces, len(sc.Domain.Concepts))
		}
	}
}

// knownWhat validates -what against the mode table.
func knownWhat(name string) bool {
	for _, w := range whats {
		if w.name == name {
			return true
		}
	}
	return false
}

func whatNames() string {
	names := make([]string, len(whats))
	for i, w := range whats {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func mark(on bool) string {
	if on {
		return "yes"
	}
	return "-"
}

// printList answers -list: every generation mode and every known domain.
func printList() {
	fmt.Println("Modes (-what):")
	for _, w := range whats {
		fmt.Printf("  %-10s %s\n", w.name, w.desc)
	}
	fmt.Println("\nPaper domains (-domain):")
	keys := make([]string, 0, 5)
	for _, d := range kb.Domains() {
		keys = append(keys, d.Key)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s\n", k)
	}
	fmt.Println("\nSynthetic sweep domains (-synth N, keys for N=20):")
	for _, sc := range synth.Sweep(20, 1) {
		fmt.Printf("  %-28s %s\n", sc.Domain.Key, sc.Name)
	}
}
