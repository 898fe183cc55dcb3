// Command webiq runs the full WebIQ pipeline on one domain: generate the
// domain's query interfaces, build the synthetic Surface Web and
// Deep-Web sources, acquire instances for every attribute, match the
// interfaces with the IceQ-style matcher, and report accuracy.
//
// Usage:
//
//	webiq -domain airfare [-seed 1] [-tau 0.1] [-components surface,deep,attr] [-json out.json] [-v]
//
// Observability:
//
//	-trace spans.ndjson   write the span log (one JSON object per span)
//	                      to a file; per-component span totals
//	                      reproduce the report's overhead numbers
//	-metrics              print the final metrics snapshot in Prometheus
//	                      text format to stdout after the run
//	-ledger out.ndjson    write the decision-provenance ledger (one JSON
//	                      object per pipeline decision) to a file;
//	                      -ledger /dev/stderr watches decisions live
//	-explain <attr>       after the run, print every ledger decision
//	                      concerning the attribute (ID or exact label) —
//	                      the evidence behind each accepted instance
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/webiq"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("webiq: ")

	domainFlag := flag.String("domain", "airfare", "domain to run (airfare, auto, book, job, realestate)")
	seed := flag.Int64("seed", 1, "random seed for dataset and corpus generation")
	tau := flag.Float64("tau", 0.1, "clustering threshold for the matcher")
	components := flag.String("components", "surface,deep,attr", "comma-separated WebIQ components: surface, deep, attr (empty disables all)")
	jsonIn := flag.String("dataset", "", "load the dataset from this JSON file instead of generating it")
	jsonOut := flag.String("json", "", "write the acquired dataset as JSON to this file")
	verbose := flag.Bool("v", false, "print per-attribute acquisition outcomes")
	traceFile := flag.String("trace", "", "write the NDJSON span log to this file")
	metricsDump := flag.Bool("metrics", false, "print the final metrics snapshot (Prometheus text format) to stdout")
	ledgerFile := flag.String("ledger", "", "write the decision-provenance ledger as NDJSON to this file")
	explainAttr := flag.String("explain", "", "print the provenance decisions for this attribute (ID or exact label) after the run")
	learn := flag.Int("learn-tau", 0, "learn the threshold interactively with this question budget (0 = use -tau)")
	queryCache := flag.Bool("query-cache", true, "deduplicate repeated search-engine queries through the sharded query cache (results are identical; raw and deduplicated costs are both reported)")
	workers := flag.Int("workers", 0, "worker-pool size for the parallel acquisition phases and the matcher's similarity matrix (0 = sequential acquisition, GOMAXPROCS matcher)")
	faults := flag.String("faults", "", "inject the named fault profile into the pipeline backends (p10, p30, latency2x, burst, malformed); the run degrades gracefully and reports what it gave up")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault-injection stream")
	flag.Parse()

	dom := kb.DomainByKey(*domainFlag)
	if dom == nil {
		log.Fatalf("unknown domain %q (try airfare, auto, book, job, realestate)", *domainFlag)
	}

	comps, err := parseComponents(*components)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Building Surface-Web corpus and %s dataset (seed %d)...\n", dom.Key, *seed)
	engine := surfaceweb.NewEngine()
	corpusCfg := surfaceweb.DefaultCorpusConfig()
	corpusCfg.Seed = *seed
	surfaceweb.BuildCorpus(engine, kb.Domains(), corpusCfg)

	var ds *schema.Dataset
	if *jsonIn != "" {
		f, err := os.Open(*jsonIn)
		if err != nil {
			log.Fatal(err)
		}
		ds, err = schema.ReadJSON(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if ds.Domain != dom.Key {
			log.Fatalf("dataset file is for domain %q, -domain is %q", ds.Domain, dom.Key)
		}
	} else {
		dataCfg := dataset.DefaultConfig()
		dataCfg.Seed = *seed
		ds = dataset.Generate(dom, dataCfg)
	}

	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = *seed
	pool := deepweb.BuildPool(ds, dom, deepCfg)

	st := ds.ComputeStats()
	fmt.Printf("Dataset: %d interfaces, %d attributes (%.1f per interface), %.1f%% attributes without instances\n",
		st.Interfaces, st.Attributes, st.AvgAttrs, st.PctAttrsNoInst)
	fmt.Printf("Corpus: %d pages indexed\n\n", engine.NumDocs())

	cfg := webiq.DefaultConfig()
	cfg.Parallelism = *workers
	var se webiq.MeteredEngine = engine
	var cache *surfaceweb.CachedEngine
	if *queryCache {
		cache = surfaceweb.NewCachedEngine(engine, surfaceweb.DefaultCacheShards)
		se = cache
	}
	acq := webiq.NewPipeline(se, pool, cfg, comps)
	if *faults != "" {
		prof, err := resilience.ProfileByName(*faults)
		if err != nil {
			log.Fatal(err)
		}
		acq.SetFallible(webiq.FaultClients(prof, *faultSeed, se, pool.Source))
		fmt.Printf("Fault injection on: profile %s, seed %d (retry + circuit breaker active)\n", prof.Name, *faultSeed)
	}

	var reg *obs.Registry
	if *metricsDump {
		reg = obs.NewRegistry()
		engine.Instrument(reg)
		if cache != nil {
			cache.Instrument(reg)
		}
		pool.Instrument(reg)
		acq.SetObserver(reg)
	}
	var spanFile *os.File
	var spans *obs.Tracer
	if *traceFile != "" {
		var err error
		spanFile, err = os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		spans = obs.NewTracer(spanFile)
		acq.SetSpanTracer(spans)
	}
	var ledger *obs.Ledger
	var ledgerOut *os.File
	if *ledgerFile != "" || *explainAttr != "" {
		if *ledgerFile != "" {
			var err error
			ledgerOut, err = os.Create(*ledgerFile)
			if err != nil {
				log.Fatal(err)
			}
			ledger = obs.NewLedger(ledgerOut)
		} else {
			ledger = obs.NewLedger(nil)
		}
		if reg != nil {
			ledger.Instrument(reg)
		}
		acq.SetLedger(ledger)
	}

	fmt.Println("Acquiring instances...")
	start := time.Now()
	rep := acq.AcquireAllCtx(context.Background(), ds)
	fmt.Printf("Acquisition done in %v (wall); %d search queries (%.1f simulated minutes), %d deep probes (%.1f simulated minutes)\n",
		time.Since(start).Round(time.Millisecond),
		engine.QueryCount(), engine.VirtualTime().Minutes(),
		pool.QueryCount(), pool.VirtualTime().Minutes())
	if cache != nil {
		raw := cache.RawQueryCount()
		hitRate := 0.0
		if raw > 0 {
			hitRate = 100 * float64(cache.Hits()) / float64(raw)
		}
		fmt.Printf("Query cache: %d raw queries, %d answered from cache (%.1f%% hit rate); a cacheless client would have spent %.1f simulated minutes\n",
			raw, cache.Hits(), hitRate, cache.RawVirtualTime().Minutes())
	}
	fmt.Printf("Acquisition success rate on instance-less attributes: %.1f%%\n\n", rep.SuccessRate())
	if len(rep.Degradations) > 0 || rep.Interrupted != nil {
		counts := map[string]int{}
		for _, d := range rep.Degradations {
			counts[d.Stage+"/"+d.Reason]++
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("Degraded gracefully %d times:\n", len(rep.Degradations))
		for _, k := range keys {
			fmt.Printf("  %-32s %d\n", k, counts[k])
		}
		if rep.Interrupted != nil {
			fmt.Printf("  acquisition interrupted early: %v\n", rep.Interrupted)
		}
		fmt.Println()
	}

	if *verbose {
		for _, o := range rep.Outcomes {
			if o.HadInstances && o.Acquired == 0 {
				continue
			}
			fmt.Printf("  %-24s %-22q acquired=%-3d via=%v\n", o.AttrID, o.Label, o.Acquired, o.Methods)
		}
		fmt.Println()
	}

	if *learn > 0 {
		m := matcher.New(matcher.Config{Alpha: 0.6, Beta: 0.4})
		learned, asked := m.LearnThreshold(ds, matcher.GoldOracle(ds), *learn)
		fmt.Printf("Learned threshold tau=%.3f after %d oracle questions\n", learned, asked)
		*tau = learned
	}

	for _, th := range []float64{0, *tau} {
		mm := matcher.New(matcher.Config{Alpha: 0.6, Beta: 0.4, Threshold: th, Workers: *workers})
		mm.Instrument(reg)
		if th == *tau {
			// The ledger records the merges of the run that produces the
			// final result (the -tau run).
			mm.SetLedger(ledger)
		}
		res := mm.Match(ds)
		m := matcher.Evaluate(res.Pairs, ds.GoldPairs())
		fmt.Printf("Matching (tau=%.2f): P=%.3f R=%.3f F1=%.3f (%d clusters, %d pairs)\n",
			th, m.Precision, m.Recall, m.F1, len(res.Clusters), m.Predicted)
		if th == *tau && th == 0 {
			break
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := ds.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nAcquired dataset written to %s\n", *jsonOut)
	}

	if ledgerOut != nil {
		if err := ledgerOut.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nProvenance ledger written to %s (%d decisions)\n", *ledgerFile, ledger.Len())
	}
	if *explainAttr != "" {
		printExplain(ds, ledger, *explainAttr)
	}

	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nSpan log written to %s:\n", *traceFile)
		for _, tot := range spans.TotalsByName() {
			fmt.Printf("  %-18s spans=%-4d wall=%-12v virtual=%-12v queries=%d\n",
				tot.Name, tot.Spans, tot.Wall.Round(time.Microsecond), tot.Virtual, tot.Queries)
		}
	}
	if reg != nil {
		fmt.Println("\n# Final metrics snapshot")
		reg.WritePrometheus(os.Stdout)
	}
}

// printExplain prints the provenance decisions concerning one
// attribute, identified by ID or exact (case-insensitive) label.
func printExplain(ds *schema.Dataset, ledger *obs.Ledger, attr string) {
	var ids []string
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			if a.ID == attr || strings.EqualFold(a.Label, attr) {
				ids = append(ids, a.ID)
			}
		}
	}
	if len(ids) == 0 {
		fmt.Printf("\nNo attribute matches %q (use an attribute ID like airfare/if00/a0, or an exact label)\n", attr)
		return
	}
	for _, id := range ids {
		decisions := ledger.ByAttr(id)
		fmt.Printf("\nProvenance for %s (%d decisions):\n", id, len(decisions))
		for _, d := range decisions {
			line := fmt.Sprintf("  [%s] %s", d.Component, d.Verdict)
			if d.Value != "" {
				line += fmt.Sprintf(" %q", d.Value)
			}
			if d.OtherID != "" {
				line += " with " + d.OtherID
			}
			line += fmt.Sprintf(" score=%.3f", d.Score)
			if d.Threshold != 0 {
				line += fmt.Sprintf(" threshold=%.3f", d.Threshold)
			}
			if d.Component == "matcher" {
				line += fmt.Sprintf(" label_sim=%.3f dom_sim=%.3f merge_order=%d", d.LabelSim, d.DomSim, d.MergeOrder)
			}
			if d.Detail != "" {
				line += " (" + d.Detail + ")"
			}
			fmt.Println(line)
		}
	}
}

func parseComponents(s string) (webiq.Components, error) {
	var c webiq.Components
	if strings.TrimSpace(s) == "" {
		return c, nil
	}
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "surface":
			c.Surface = true
		case "deep":
			c.AttrDeep = true
		case "attr":
			c.AttrSurface = true
		default:
			return c, fmt.Errorf("unknown component %q (want surface, deep, attr)", part)
		}
	}
	return c, nil
}
