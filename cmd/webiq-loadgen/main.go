// Command webiq-loadgen drives a mixed read workload — source probe
// searches, unified-interface views, and provenance explains — against
// one or more webiq-serve replicas at a target request rate, then
// asserts service-level objectives over what it measured:
//
//	webiq-loadgen -targets http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	    -rps 100 -duration 30s -p99 500ms -max-error-rate 0.01
//
// Each request goes to a target drawn at random, and that node serves
// it from its own copy of the world. A request's latency runs from
// sending it to reading the last byte of its body. Three verdicts gate
// the exit status:
//
//  1. the client-observed p99 latency stays within -p99 (0 disables);
//  2. the non-503 error rate stays within -max-error-rate — 503s are
//     counted separately as sheds, because admission control refusing
//     work under overload is policy, not failure;
//  3. after the run, every domain renders its unified interface through
//     every target (the all-domains-servable pass, the availability
//     contract the replica gate holds while killing a node).
//
// -rps and -concurrency must be positive; anything else is a usage
// error, because the run would measure nothing.
//
// The summary is printed as JSON (to stdout, or -json FILE); any
// violated objective is listed in "violations" and makes the exit
// status 1, so scripts can gate on the generator directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// result is one completed request as the client observed it.
type result struct {
	route   string
	status  int // 0 on transport error
	err     bool
	shed    bool
	latency time.Duration
}

// summary is the machine-readable run report.
type summary struct {
	Targets      []string        `json:"targets"`
	DurationSecs float64         `json:"duration_seconds"`
	TargetRPS    int             `json:"target_rps"`
	AchievedRPS  float64         `json:"achieved_rps"`
	Requests     int             `json:"requests"`
	OK           int             `json:"ok"`
	Shed         int             `json:"shed_503"`
	Errors       int             `json:"errors"`
	ErrorRate    float64         `json:"error_rate"`
	Routes       map[string]int  `json:"routes"`
	P50Ms        float64         `json:"p50_ms"`
	P90Ms        float64         `json:"p90_ms"`
	P99Ms        float64         `json:"p99_ms"`
	MaxMs        float64         `json:"max_ms"`
	Servable     map[string]bool `json:"domains_servable"`
	Violations   []string        `json:"violations"`
	ErrorSamples map[string]int  `json:"error_samples,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("webiq-loadgen: ")

	targetsFlag := flag.String("targets", "", "comma-separated base URLs of the nodes to load (required)")
	rps := flag.Int("rps", 50, "target request rate across all targets")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate load")
	domainsFlag := flag.String("domains", "airfare,auto,book,job,realestate", "domains to exercise")
	p99SLO := flag.Duration("p99", 0, "client-observed p99 latency objective; 0 disables")
	maxErrRate := flag.Float64("max-error-rate", 0.01, "bound on the non-503 error fraction")
	jsonPath := flag.String("json", "", "write the JSON summary to this file instead of stdout")
	seed := flag.Int64("seed", 1, "seed for the traffic mix")
	reqTimeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	concurrency := flag.Int("concurrency", 64, "bound on in-flight requests")
	flag.Parse()
	if err := checkRates(*rps, *concurrency); err != nil {
		fmt.Fprintf(os.Stderr, "webiq-loadgen: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	var targets []string
	for _, t := range strings.Split(*targetsFlag, ",") {
		if t = strings.TrimSuffix(strings.TrimSpace(t), "/"); t != "" {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		log.Fatal("-targets is required")
	}
	domains := strings.Split(*domainsFlag, ",")

	client := &http.Client{Timeout: *reqTimeout}
	rng := rand.New(rand.NewSource(*seed))

	// Open-loop-ish generation: a ticker paces dispatch at the target
	// rate, a semaphore bounds in-flight work so a stalling target
	// degrades to a closed loop instead of an unbounded goroutine pile.
	var (
		mu       sync.Mutex
		results  []result
		errKinds = map[string]int{}
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, *concurrency)
	interval := time.Second / time.Duration(*rps)
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(*duration)
	start := time.Now()

	log.Printf("driving %d rps across %d targets for %v", *rps, len(targets), *duration)
	for time.Now().Before(deadline) {
		<-ticker.C
		target := targets[rng.Intn(len(targets))]
		domain := domains[rng.Intn(len(domains))]
		route, path := pickRoute(rng, domain)
		select {
		case sem <- struct{}{}:
		default:
			// At the concurrency bound: count the skipped slot as shed
			// locally rather than queueing unbounded work.
			mu.Lock()
			results = append(results, result{route: route, shed: true})
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r := doRequest(client, target+path, route)
			mu.Lock()
			results = append(results, r.res)
			if r.errKind != "" {
				errKinds[r.errKind]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := tally(targets, results, errKinds, *rps, elapsed)

	// The all-domains-servable pass: after the load (and whatever node
	// deaths happened during it), every domain must still render its
	// unified interface through every surviving target.
	sum.Servable = map[string]bool{}
	for _, d := range domains {
		servable := true
		for _, t := range targets {
			if !unifiedOK(client, t, d) {
				servable = false
				sum.Violations = append(sum.Violations,
					fmt.Sprintf("domain %s not servable via %s", d, t))
			}
		}
		sum.Servable[d] = servable
	}

	if *p99SLO > 0 && sum.P99Ms > float64(p99SLO.Milliseconds()) {
		sum.Violations = append(sum.Violations,
			fmt.Sprintf("p99 %.1fms exceeds SLO %v", sum.P99Ms, *p99SLO))
	}
	if sum.ErrorRate > *maxErrRate {
		sum.Violations = append(sum.Violations,
			fmt.Sprintf("error rate %.4f exceeds bound %.4f", sum.ErrorRate, *maxErrRate))
	}

	out, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("summary written to %s", *jsonPath)
	} else {
		os.Stdout.Write(out)
	}
	if len(sum.Violations) > 0 {
		log.Fatalf("FAIL: %d objective(s) violated: %s",
			len(sum.Violations), strings.Join(sum.Violations, "; "))
	}
	log.Printf("PASS: %d requests, %.1f rps achieved, p99 %.1fms, error rate %.4f",
		sum.Requests, sum.AchievedRPS, sum.P99Ms, sum.ErrorRate)
}

// pickRoute draws from the traffic mix: mostly cheap source probes,
// with unified views and provenance explains riding along.
func pickRoute(rng *rand.Rand, domain string) (route, path string) {
	switch p := rng.Float64(); {
	case p < 0.60:
		ifc := fmt.Sprintf("%s/if%02d", domain, rng.Intn(3))
		return "search", fmt.Sprintf("/source/%s/search?f0=a", ifc)
	case p < 0.90:
		return "unified", "/unified/" + domain
	default:
		return "explain", "/unified/" + domain + "/explain"
	}
}

type reqOutcome struct {
	res     result
	errKind string
}

// checkRates rejects load shapes that make the run meaningless: a
// non-positive -rps has no dispatch interval, and a non-positive
// -concurrency admits no request, so every slot would count as shed.
func checkRates(rps, concurrency int) error {
	if rps <= 0 {
		return fmt.Errorf("-rps must be positive, got %d", rps)
	}
	if concurrency <= 0 {
		return fmt.Errorf("-concurrency must be positive, got %d", concurrency)
	}
	return nil
}

// doRequest performs one request and classifies the outcome. The
// latency runs to the last byte: the clock stops after the body is
// drained, so body transfer counts. A 404 on a probe route is an error
// (the interface must exist on every node); a 503 is a shed, the
// admission queue or a draining node saying "not now" — bounded
// separately from real failures.
func doRequest(client *http.Client, url, route string) reqOutcome {
	start := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return reqOutcome{res: result{route: route, err: true, latency: time.Since(start)}, errKind: "transport"}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	out := reqOutcome{res: result{route: route, status: resp.StatusCode, latency: time.Since(start)}}
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		out.res.shed = true
	case resp.StatusCode >= 400:
		out.res.err = true
		out.errKind = fmt.Sprintf("http-%d", resp.StatusCode)
	}
	return out
}

// unifiedOK is the servability check: GET /unified/{domain} with a few
// retries, so one transient refusal (an admission-control 503, a reset
// connection) does not fail the pass.
func unifiedOK(client *http.Client, target, domain string) bool {
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), client.Timeout)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, target+"/unified/"+domain, nil)
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			cancel()
			if resp.StatusCode == http.StatusOK {
				return true
			}
		} else {
			cancel()
		}
		time.Sleep(200 * time.Millisecond)
	}
	return false
}

// tally reduces the raw results to the summary report.
func tally(targets []string, results []result, errKinds map[string]int, rps int, elapsed time.Duration) summary {
	sum := summary{
		Targets:      targets,
		DurationSecs: elapsed.Seconds(),
		TargetRPS:    rps,
		Requests:     len(results),
		Routes:       map[string]int{},
		ErrorSamples: errKinds,
		Violations:   []string{},
	}
	var lats []time.Duration
	for _, r := range results {
		sum.Routes[r.route]++
		switch {
		case r.shed:
			sum.Shed++
		case r.err:
			sum.Errors++
		default:
			sum.OK++
		}
		if !r.shed {
			lats = append(lats, r.latency)
		}
	}
	if elapsed > 0 {
		sum.AchievedRPS = float64(len(results)) / elapsed.Seconds()
	}
	if n := sum.OK + sum.Errors; n > 0 {
		sum.ErrorRate = float64(sum.Errors) / float64(n)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(lats)-1))
			return float64(lats[i]) / float64(time.Millisecond)
		}
		sum.P50Ms, sum.P90Ms, sum.P99Ms = q(0.50), q(0.90), q(0.99)
		sum.MaxMs = float64(lats[len(lats)-1]) / float64(time.Millisecond)
	}
	return sum
}
