// Command benchjson converts `go test -bench` text output on stdin into
// a stable JSON document, so benchmark runs can be committed and
// diffed. Each benchmark line becomes one record with its iteration
// count and every reported (value, unit) pair — standard units like
// ns/op and B/op as well as custom b.ReportMetric units.
//
// It also compares two such documents, failing when any watched metric
// regresses beyond a threshold — the perf-regression gate run by
// `make bench-gate`:
//
//	go test -run='^$' -bench BenchmarkPipeline -benchmem . | benchjson > BENCH_pipeline.json
//	benchjson -compare old.json new.json -max-regress 10%
//	benchjson -compare old.json new.json -metrics "ns/op=25%,B/op,allocs/op"
//	... | benchjson > new.json && benchjson -compare BENCH_pipeline.json new.json
//
// A -metrics entry may carry its own threshold after "=" (percentage or
// fraction), overriding the -max-regress default for that unit; that is
// how wall clock (ns/op, inherently noisier across machines) is gated
// at a looser 25% while allocation metrics stay tight. A unit prefixed
// with "<" gates in the other direction — lower is worse — for metrics
// like scaling efficiency ("<eff%=15%") where a drop, not a rise, is
// the regression.
//
// In compare mode the new file may be "-" to read JSON from stdin.
// Runs are matched by name with the trailing -<GOMAXPROCS> suffix
// stripped, so a gate run on an 8-core CI box compares against a
// baseline recorded on any other machine. A baseline run missing from
// the new report is an error; runs present only in the new report — a
// benchmark suite grew before its baseline was refreshed — are listed
// as "NEW" informationally and do not affect the verdict. Deltas beyond
// the threshold in a unit's worse direction on any -metrics unit exit
// nonzero.
//
// A report records the CPU count and GOMAXPROCS of the machine that
// converted it, which must be the machine that ran the benchmarks (the
// Makefile pipes one into the other under the same GOMAXPROCS). The
// scaling efficiency of a parallel-N run means nothing when N exceeds
// the CPUs that ran it, so the compare mode does not gate eff% for such
// a run: it prints a SKIP line with the reason instead. A baseline
// written before the CPU count was recorded is still accepted; the
// check then uses the other report's count alone.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Run is the parsed form of one benchmark result line.
type Run struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole document: the environment header go test prints
// plus every benchmark line, in input order.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU and GOMAXPROCS describe the machine the runs came from;
	// zero in reports written before they were recorded.
	NumCPU     int   `json:"num_cpu,omitempty"`
	GOMAXPROCS int   `json:"gomaxprocs,omitempty"`
	Runs       []Run `json:"runs"`
}

// scalingUnit is the parallel-N scaling efficiency metric, which is
// only comparable while N fits the CPUs of both runs.
const scalingUnit = "eff%"

// stampHost records this process's CPU count and GOMAXPROCS in rep:
// the benchmarks were run in the same pipe, on the same machine.
func stampHost(rep *Report) {
	rep.NumCPU = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	compare := flag.Bool("compare", false, "compare two benchmark JSON files: benchjson -compare old.json new.json")
	maxRegress := flag.String("max-regress", "10%", "with -compare: default maximum allowed relative regression, as a percentage (10%) or fraction (0.1)")
	metricsFlag := flag.String("metrics", "ns/op,B/op,allocs/op", "with -compare: comma-separated metric units to gate on; a unit may carry its own threshold (ns/op=25%) overriding -max-regress")
	flag.Parse()

	if !*compare {
		if flag.NArg() != 0 {
			log.Fatalf("unexpected arguments %q (conversion mode reads stdin)", flag.Args())
		}
		convert()
		return
	}
	// Accept trailing flags after the two paths (`benchjson -compare
	// old.json new.json -max-regress 10%`): the flag package stops at
	// the first positional, so re-parse the remainder.
	if flag.NArg() > 2 {
		rest := flag.NewFlagSet("compare", flag.ExitOnError)
		maxRegress = rest.String("max-regress", *maxRegress, "maximum allowed relative regression")
		metricsFlag = rest.String("metrics", *metricsFlag, "comma-separated metric units to gate on")
		if err := rest.Parse(flag.Args()[2:]); err != nil || rest.NArg() != 0 {
			log.Fatal("usage: benchjson -compare old.json new.json [-max-regress 10%] [-metrics ns/op=25%,B/op,allocs/op]")
		}
	}
	if flag.NArg() < 2 {
		log.Fatal("usage: benchjson -compare old.json new.json (new.json may be - for stdin)")
	}
	threshold, err := parseRegress(*maxRegress)
	if err != nil {
		log.Fatal(err)
	}
	specs, err := parseMetricSpecs(*metricsFlag, threshold)
	if err != nil {
		log.Fatal(err)
	}
	if len(specs) == 0 {
		log.Fatal("-metrics must name at least one unit")
	}
	old, err := loadReport(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	new_, err := loadReport(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	if !compareReports(os.Stdout, old, new_, specs) {
		os.Exit(1)
	}
}

// convert is the original mode: bench text on stdin, JSON on stdout.
func convert() {
	rep, err := parseBenchOutput(os.Stdin)
	if err != nil {
		log.Fatal(err)
	}
	stampHost(&rep)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

// parseBenchOutput reads `go test -bench` text output into a Report.
func parseBenchOutput(r io.Reader) (Report, error) {
	rep := Report{Runs: []Run{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			run, ok := parseBenchLine(line)
			if ok {
				rep.Runs = append(rep.Runs, run)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	if len(rep.Runs) == 0 {
		return Report{}, fmt.Errorf("no benchmark lines found in input")
	}
	return rep, nil
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   3   980585804 ns/op   123 B/op   45 allocs/op
//
// into a Run; value/unit pairs follow the iteration count.
func parseBenchLine(line string) (Run, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Run{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Run{}, false
	}
	run := Run{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Run{}, false
		}
		run.Metrics[fields[i+1]] = v
	}
	if len(run.Metrics) == 0 {
		return Run{}, false
	}
	return run, true
}

// loadReport reads a benchmark JSON document; "-" means stdin, which
// accepts either an already-converted JSON report or raw `go test
// -bench` text, so the gate can pipe a fresh run straight in.
func loadReport(path string) (Report, error) {
	if path == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return Report{}, fmt.Errorf("stdin: %w", err)
		}
		var rep Report
		if jsonErr := json.Unmarshal(data, &rep); jsonErr == nil {
			return rep, nil
		}
		rep, err = parseBenchText(string(data))
		if err == nil {
			stampHost(&rep)
		}
		return rep, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// parseBenchText parses raw bench output held in a string.
func parseBenchText(s string) (Report, error) {
	rep := Report{Runs: []Run{}}
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Benchmark") {
			if run, ok := parseBenchLine(line); ok {
				rep.Runs = append(rep.Runs, run)
			}
		}
	}
	if len(rep.Runs) == 0 {
		return Report{}, fmt.Errorf("stdin: no benchmark runs found (neither JSON report nor bench text)")
	}
	return rep, nil
}

// parseRegress parses "10%" or "0.1" into a fraction.
func parseRegress(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(s, "%")), 64)
	if err != nil {
		return 0, fmt.Errorf("bad -max-regress %q: %v", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("bad -max-regress %q: must be non-negative", s)
	}
	return v, nil
}

// metricSpec is one gated unit with its regression threshold. Wall
// clock (ns/op) is noisier than allocation counts across machines, so
// it typically rides with a looser per-unit threshold (ns/op=25%) while
// allocs/op and B/op stay at the tight default.
type metricSpec struct {
	unit      string
	threshold float64
	// lowerWorse flips the gated direction: the metric regresses by
	// DECREASING (scaling efficiency, throughput), so the gate fires on
	// drops beyond the threshold instead of rises.
	lowerWorse bool
}

// parseMetricSpecs parses the -metrics CSV. Each entry is a unit,
// optionally with its own threshold after "=": "ns/op=25%" gates ns/op
// at 25% while plain entries use the -max-regress default. A "<" prefix
// marks the unit lower-is-worse: "<eff%=15%" fails when eff% drops more
// than 15%.
func parseMetricSpecs(s string, def float64) ([]metricSpec, error) {
	var out []metricSpec
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m == "" {
			continue
		}
		unit, thr, has := strings.Cut(m, "=")
		spec := metricSpec{unit: strings.TrimSpace(unit), threshold: def}
		if strings.HasPrefix(spec.unit, "<") {
			spec.lowerWorse = true
			spec.unit = strings.TrimSpace(strings.TrimPrefix(spec.unit, "<"))
		}
		if has {
			v, err := parseRegress(thr)
			if err != nil {
				return nil, fmt.Errorf("bad -metrics entry %q: %v", m, err)
			}
			spec.threshold = v
		}
		if spec.unit == "" {
			return nil, fmt.Errorf("bad -metrics entry %q: empty unit", m)
		}
		out = append(out, spec)
	}
	return out, nil
}

// baseName strips the trailing -<GOMAXPROCS> suffix go test appends to
// parallel benchmark names, so runs match across machines with
// different core counts.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// parallelWidth returns N for a benchmark named ".../parallel-N" (after
// baseName), or 0 for any other benchmark.
func parallelWidth(name string) int {
	_, after, ok := strings.Cut(name, "/parallel-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(after)
	if err != nil {
		return 0
	}
	return n
}

// recordedCPUs returns the smaller CPU count the two reports record,
// ignoring a report that records none; 0 when neither does.
func recordedCPUs(old, new_ Report) int {
	switch {
	case old.NumCPU == 0:
		return new_.NumCPU
	case new_.NumCPU == 0:
		return old.NumCPU
	}
	return min(old.NumCPU, new_.NumCPU)
}

// compareReports prints a per-metric delta table and reports whether
// the gate passes: every old run present in new, and no watched metric
// regressed — increased, or for lower-is-worse units decreased — by
// more than its spec's threshold. Metrics absent from a run (e.g.
// allocs/op without -benchmem) are skipped, but a metric present in old
// and missing in new fails — the gate must not pass because
// instrumentation was dropped. Runs present only in the new report are
// listed as NEW, informationally: a freshly added benchmark must not
// fail the gate before the baseline is refreshed to record it. eff% of
// a parallel-N run wider than the recorded CPU count is listed as SKIP
// and not gated.
func compareReports(w io.Writer, old, new_ Report, specs []metricSpec) bool {
	cpus := recordedCPUs(old, new_)
	newByName := map[string]Run{}
	for _, r := range new_.Runs {
		newByName[baseName(r.Name)] = r
	}
	oldNames := map[string]bool{}
	for _, r := range old.Runs {
		oldNames[baseName(r.Name)] = true
	}
	for _, r := range new_.Runs {
		if !oldNames[baseName(r.Name)] {
			fmt.Fprintf(w, "NEW  %s: not in baseline (informational)\n", baseName(r.Name))
		}
	}

	type row struct {
		name, metric     string
		oldV, newV, frac float64
		bad              bool
	}
	var rows []row
	ok := true
	for _, or := range old.Runs {
		name := baseName(or.Name)
		nr, found := newByName[name]
		if !found {
			fmt.Fprintf(w, "FAIL %s: missing from new report\n", name)
			ok = false
			continue
		}
		for _, spec := range specs {
			ov, hasOld := or.Metrics[spec.unit]
			if !hasOld {
				continue
			}
			if n := parallelWidth(name); spec.unit == scalingUnit && cpus > 0 && n > cpus {
				fmt.Fprintf(w, "SKIP %s %s: parallel-%d is wider than the %d CPUs recorded (old %d, new %d); its scaling efficiency is not comparable\n",
					name, spec.unit, n, cpus, old.NumCPU, new_.NumCPU)
				continue
			}
			nv, hasNew := nr.Metrics[spec.unit]
			if !hasNew {
				fmt.Fprintf(w, "FAIL %s %s: metric missing from new report\n", name, spec.unit)
				ok = false
				continue
			}
			var frac float64
			if ov != 0 {
				frac = (nv - ov) / ov
			} else if nv > 0 {
				frac = 1 // from zero to nonzero: treat as full regression
			}
			bad := frac > spec.threshold
			if spec.lowerWorse {
				bad = -frac > spec.threshold
			}
			if bad {
				ok = false
			}
			rows = append(rows, row{name, spec.unit, ov, nv, frac, bad})
		}
	}

	sort.SliceStable(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	fmt.Fprintf(w, "%-40s %-10s %15s %15s %8s\n", "benchmark", "metric", "old", "new", "delta")
	for _, r := range rows {
		status := ""
		if r.bad {
			status = "  REGRESSION"
		}
		fmt.Fprintf(w, "%-40s %-10s %15.0f %15.0f %+7.1f%%%s\n",
			r.name, r.metric, r.oldV, r.newV, r.frac*100, status)
	}
	limits := make([]string, len(specs))
	for i, spec := range specs {
		dir := ""
		if spec.lowerWorse {
			dir = "<"
		}
		limits[i] = fmt.Sprintf("%s%s %.1f%%", dir, spec.unit, spec.threshold*100)
	}
	verdict := "PASS"
	if !ok {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "%s (max allowed regression: %s)\n", verdict, strings.Join(limits, ", "))
	return ok
}
