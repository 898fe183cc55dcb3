// Crossdomain runs a miniature version of the paper's full evaluation:
// all five domains, acquisition with every WebIQ component, matching at
// both thresholds, and a compact per-domain accuracy report.
//
// Run with: go run ./examples/crossdomain
package main

import (
	"context"
	"fmt"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/surfaceweb"
	"webiq/internal/webiq"
)

func main() {
	start := time.Now()
	engine := surfaceweb.NewEngine()
	surfaceweb.BuildCorpus(engine, kb.Domains(), surfaceweb.DefaultCorpusConfig())
	fmt.Printf("Surface Web: %d pages (%v)\n\n", engine.NumDocs(), time.Since(start).Round(time.Millisecond))

	fmt.Printf("%-11s %9s %12s %9s %9s %9s\n",
		"Domain", "Baseline", "AcqSuccess%", "F1+WebIQ", "F1+tau.1", "Queries")
	for _, dom := range kb.Domains() {
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())

		base := matcher.Evaluate(
			matcher.New(matcher.DefaultConfig()).Match(ds).Pairs, ds.GoldPairs())

		acq := webiq.NewPipeline(engine, pool, webiq.DefaultConfig(), webiq.AllComponents())
		q0 := engine.QueryCount()
		rep := acq.AcquireAllCtx(context.Background(), ds)

		after := matcher.Evaluate(
			matcher.New(matcher.DefaultConfig()).Match(ds).Pairs, ds.GoldPairs())
		thresh := matcher.Evaluate(
			matcher.New(matcher.Config{Alpha: .6, Beta: .4, Threshold: .1}).Match(ds).Pairs,
			ds.GoldPairs())

		fmt.Printf("%-11s %9.1f %12.1f %9.1f %9.1f %9d\n",
			dom.Key, 100*base.F1, rep.SuccessRate(), 100*after.F1, 100*thresh.F1,
			engine.QueryCount()-q0)
	}
	fmt.Printf("\nTotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}
