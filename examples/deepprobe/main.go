// Deepprobe demonstrates the Attr-Deep component (Section 4 of the
// paper): validating borrowed instances by probing the attribute's own
// Deep-Web source and analyzing the response page.
//
// The paper's motivating example: both "from January" and "from Chicago"
// are frequent on the Surface Web, but querying an airfare source with
// from=Chicago yields results while from=January does not.
//
// Run with: go run ./examples/deepprobe
package main

import (
	"context"
	"fmt"

	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/schema"
	"webiq/internal/synth"
	"webiq/internal/webiq"
)

func main() {
	world := synth.World{Seed: 1, Domains: kb.Domains()}
	ds := world.Dataset(world.Domain("airfare"))
	pool := world.Pool(ds)

	// Find a free-text origin-city attribute backed by a source that
	// accepts partial queries: the others reject every probe that sets
	// a single attribute.
	var attr *schema.Attribute
	for _, a := range ds.AllAttributes() {
		if a.ConceptID == "airfare.origin_city" && !a.HasInstances() &&
			pool.Source(a.InterfaceID).AcceptsPartialQueries() {
			attr = a
			break
		}
	}
	if attr == nil {
		fmt.Println("no free-text origin attribute in this dataset draw")
		return
	}
	src := pool.Source(attr.InterfaceID)
	fmt.Printf("Probing source %s, attribute %q (%s)\n\n",
		src.Interface().Source, attr.Label, attr.ID)

	// Individual probes: the paper's from=Chicago vs from=January.
	for _, value := range []string{"Chicago", "Boston", "January", "Economy", "$500"} {
		page := src.Probe(attr.ID, value)
		ok := deepweb.AnalyzeResponse(page)
		fmt.Printf("  %s=%q -> %v\n", attr.Label, value, verdict(ok))
	}

	// The full Attr-Deep flow with the one-third rule.
	wcfg := webiq.DefaultConfig()
	ad := webiq.NewAttrDeep(pool, wcfg)

	cities := []string{"Boston", "Chicago", "Seattle", "Denver", "Miami", "Atlanta", "Portland", "Austin"}
	months := []string{"January", "February", "March", "April", "May", "June"}

	accepted, ok := ad.ValidateBorrowedCtx(context.Background(), attr.InterfaceID, attr.ID, attr.Label, "City", cities)
	fmt.Printf("\nBorrowed city instances: accepted=%v (%d values)\n", ok, len(accepted))
	accepted, ok = ad.ValidateBorrowedCtx(context.Background(), attr.InterfaceID, attr.ID, attr.Label, "Month", months)
	fmt.Printf("Borrowed month instances: accepted=%v (%d values)\n", ok, len(accepted))

	fmt.Printf("\nDeep-Web usage: %d probes, %.1f simulated minutes\n",
		pool.QueryCount(), pool.VirtualTime().Minutes())
}

func verdict(ok bool) string {
	if ok {
		return "accepted (result page)"
	}
	return "rejected (error / empty page)"
}
