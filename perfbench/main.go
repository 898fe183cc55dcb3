// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, drives the WebIQ pipeline or the
// snapshot-booted server through their public functions, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with
// tracing off; with --trace 1 they are the per-layer set of a traced run.
// The process exits non-zero when an output check fails. README.md
// describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them; README.md gives each one's meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"web_queries_per_domain", "count"},
	{"deep_probes_per_domain", "count"},
	{"match_f1_pct", "%"},
	{"acq_success_pct", "%"},
	{"heap_peak_mb", "MiB"},
}

// perLayer are the per-layer metrics of a traced run. A metric of a
// layer a workload does not exercise reads 0 on it. The two tail
// latencies sit here rather than among the end-to-end metrics: on a
// shared 2-vCPU host the serving tail moved by half its median between
// runs, too far for any regression bound.
var perLayer = []metricDef{
	{"pipeline.build_ms_p90", "ms"},
	{"loadgen.req_ms_p99", "ms"},
	{"surfaceweb.search.calls", "count/domain"},
	{"surfaceweb.search.busy_ms", "ms/domain"},
	{"surfaceweb.hits.queries", "count/domain"},
	{"surfaceweb.hits.busy_ms", "ms/domain"},
	{"surfaceweb.hits.per_batch", "count"},
	{"surfaceweb.cache.hit_pct", "%"},
	{"surfaceweb.engine.queries", "count/domain"},
	{"surfaceweb.engine.sim_min", "min/domain"},
	{"webiq.surface.extract_self_ms", "ms/domain"},
	{"webiq.surface.outlier_ms", "ms/domain"},
	{"webiq.surface.validate_self_ms", "ms/domain"},
	{"webiq.surface.candidates", "count/domain"},
	{"webiq.surface.accept_pct", "%"},
	{"webiq.surface.busy_ms", "ms/domain"},
	{"webiq.acquire.busy_ms", "ms/domain"},
	{"webiq.acquire.self_ms", "ms/domain"},
	{"webiq.attrsurface.busy_ms", "ms/domain"},
	{"webiq.attrsurface.self_ms", "ms/domain"},
	{"webiq.attrsurface.accept_pct", "%"},
	{"webiq.attrdeep.busy_ms", "ms/domain"},
	{"webiq.attrdeep.probes", "count/domain"},
	{"webiq.attrdeep.donor_accept_pct", "%"},
	{"matcher.match.busy_ms", "ms/domain"},
	{"unify.build.busy_ms", "ms/domain"},
	{"surfaceweb.build_corpus_ms", "ms"},
	{"dataset.generate_ms", "ms"},
	{"deepweb.build_pool_ms", "ms"},
	{"snapshot.build_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"server.new_ms", "ms"},
	{"server.probe.ms_p50", "ms"},
	{"server.probe.ms_p99", "ms"},
	{"server.fanout.ms_p50", "ms"},
	{"server.fanout.ms_p99", "ms"},
	{"server.view.ms_p50", "ms"},
	{"server.view.ms_p99", "ms"},
	{"server.explain.ms_p50", "ms"},
	{"server.explain.ms_p99", "ms"},
	{"server.non2xx", "count"},
	{"deepweb.probes", "count/req"},
	{"runtime.alloc_mb_per_domain", "MiB/domain"},
	{"runtime.allocs_per_domain", "count/domain"},
	{"runtime.alloc_kb_per_req", "KiB/req"},
	{"runtime.allocs_per_req", "count/req"},
	{"runtime.gc_cycles", "1/s"},
	{"runtime.gc_cpu_pct", "%"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *outcome) error{
	"acquire-cold": runAcquireCold,
	"acquire-warm": runAcquireWarm,
	"serve-mixed":  runServeMixed,
}

// runConfig is what a workload runner is given.
type runConfig struct {
	seed   int64
	budget time.Duration
	trace  bool
	// workers is the worker-goroutine and connection count: nproc.
	workers int
}

// outcome collects a run's counts, metric values and the notes printed
// beside them.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             map[string]string
	messages          []string
}

func (o *outcome) note(format string, args ...any) {
	if len(o.messages) < 20 {
		o.messages = append(o.messages, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: acquire-cold, acquire-warm or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	commit := flag.String("commit", "none", "source revision, printed in the run header")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {acquire-cold|acquire-warm|serve-mixed} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		workers: runtime.NumCPU(),
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("# num_cpu=%d gomaxprocs=%d go=%s workers=%d connections=%d commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rc.workers, rc.workers, *commit)

	out := &outcome{metrics: map[string]float64{}, notes: map[string]string{}}
	if err := run(rc, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	if err := report(out, defs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if out.failed > 0 {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one line per metric and then the JSON result line. An
// end-to-end metric the workload did not produce is a benchmark bug; a
// per-layer metric of a layer the workload does not exercise reads 0.
func report(out *outcome, defs []metricDef) error {
	for _, msg := range out.messages {
		fmt.Println(msg)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && isEndToEnd(d.name) {
			return fmt.Errorf("workload produced no %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", d.name, v)
		}
		fmt.Printf("metric %-32s %14.4f %-12s %s\n", d.name, v, d.unit, out.notes[d.name])
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Printf("error_pct %.4f (%d failed of %d attempted)\n", pct(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.name == name {
			return true
		}
	}
	return false
}
