// Crossdomain runs a miniature version of the paper's full evaluation:
// all five domains, acquisition with every WebIQ component, matching at
// both thresholds, and a compact per-domain accuracy report.
//
// Run with: go run ./examples/crossdomain
package main

import (
	"fmt"
	"time"

	"webiq"
)

func main() {
	start := time.Now()
	sys := webiq.NewSystem(webiq.Options{})
	fmt.Printf("Surface Web: %d pages (%v)\n\n", sys.CorpusSize(), time.Since(start).Round(time.Millisecond))

	fmt.Printf("%-11s %9s %12s %9s %9s %9s\n",
		"Domain", "Baseline", "AcqSuccess%", "F1+WebIQ", "F1+tau.1", "Queries")
	for _, key := range sys.DomainKeys() {
		ds := sys.GenerateDataset(key)
		_, base := sys.Match(ds, 0)

		q0, _ := sys.SearchQueries()
		rep := sys.Acquire(ds)
		q1, _ := sys.SearchQueries()

		_, after := sys.Match(ds, 0)
		_, thresh := sys.Match(ds, .1)

		fmt.Printf("%-11s %9.1f %12.1f %9.1f %9.1f %9d\n",
			key, 100*base.F1, rep.SuccessRate(), 100*after.F1, 100*thresh.F1, q1-q0)
	}
	fmt.Printf("\nTotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}
