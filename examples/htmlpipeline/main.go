// Htmlpipeline demonstrates the end-to-end Deep-Web integration flow
// from raw HTML: render two source form pages, extract their query
// interfaces back out of the HTML, acquire instances with WebIQ, and
// match — i.e. the full pipeline a crawler-fed integrator would run.
//
// Run with: go run ./examples/htmlpipeline
package main

import (
	"fmt"
	"log"
	"strings"

	"webiq"
)

// Two hand-written source pages in the styles of 2004 airfare sites:
// one uses <label for=...>, the other a table layout with text labels.
const pageA = `
<html><head><title>SkyQuest Fares</title></head><body>
<h1>Find a flight</h1>
<form action="/go" method="get">
  <label for="o">From city:</label> <input type="text" id="o" name="o"><br>
  <label for="d">To city:</label> <input type="text" id="d" name="d"><br>
  <label for="c">Class of service:</label>
  <select id="c" name="c">
    <option value="">-- Select --</option>
    <option>Economy</option><option>Business</option><option>First Class</option>
  </select><br>
  <label for="a">Airline:</label>
  <select id="a" name="a">
    <option value="">Any</option>
    <option>Delta</option><option>United</option><option>American</option>
    <option>Northwest</option>
  </select><br>
  <input type="submit" value="Search">
</form></body></html>`

const pageB = `
<html><head><title>EuroWings Booking</title></head><body>
<form method="post" action="search.cgi">
<table>
<tr><td>Departure city:</td><td><input type="text" name="dep"></td></tr>
<tr><td>Arrival city:</td><td><input type="text" name="arr"></td></tr>
<tr><td>Cabin:</td><td>
  <select name="cab">
    <option>Please select</option>
    <option>Economy</option><option>Premium Economy</option><option>Business</option>
  </select></td></tr>
<tr><td>Carrier:</td><td>
  <select name="car">
    <option>No preference</option>
    <option>Aer Lingus</option><option>Lufthansa</option><option>Air France</option>
    <option>KLM</option>
  </select></td></tr>
</table>
<input type="submit" value="Find">
</form></body></html>`

func main() {
	// Step 1: interface extraction from HTML.
	qa, err := webiq.ExtractInterfaceHTML(pageA, "skyquest")
	if err != nil {
		log.Fatal(err)
	}
	qb, err := webiq.ExtractInterfaceHTML(pageB, "eurowings")
	if err != nil {
		log.Fatal(err)
	}
	for _, ifc := range []*webiq.Interface{qa, qb} {
		fmt.Printf("Extracted %q (%d attributes):\n", ifc.Source, len(ifc.Attributes))
		for _, a := range ifc.Attributes {
			fmt.Printf("  %-18q instances=%v\n", a.Label, a.Instances)
		}
	}

	// The extracted attributes need concept IDs only for scoring; a real
	// deployment has no gold. Assign them here so the demo can report
	// accuracy.
	concepts := map[string]string{
		"From city": "origin", "Departure city": "origin",
		"To city": "dest", "Arrival city": "dest",
		"Class of service": "class", "Cabin": "class",
		"Airline": "airline", "Carrier": "airline",
	}
	ds := &webiq.Dataset{
		Domain: "airfare", EntityName: "flight", DomainKeyword: "airfare",
		Interfaces: []*webiq.Interface{qa, qb},
	}
	for _, ifc := range ds.Interfaces {
		ifc.Domain = "airfare"
		for _, a := range ifc.Attributes {
			a.ConceptID = concepts[a.Label]
		}
	}

	// Step 2: acquisition + matching.
	fmt.Println("\nBuilding substrates and running WebIQ...")
	sys := webiq.NewSystem(webiq.Options{})
	sys.Acquire(ds)

	res, m := sys.Match(ds, 0)
	fmt.Printf("\nMatches (P=%.2f R=%.2f F1=%.2f):\n", m.Precision, m.Recall, m.F1)
	for _, c := range res.Clusters {
		if len(c) < 2 {
			continue
		}
		var parts []string
		for _, id := range c {
			for _, ifc := range ds.Interfaces {
				if a := ifc.AttributeByID(id); a != nil {
					parts = append(parts, fmt.Sprintf("%s:%q", ifc.Source, a.Label))
				}
			}
		}
		fmt.Println("  " + strings.Join(parts, "  <->  "))
	}
}
