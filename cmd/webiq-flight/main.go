// Command webiq-flight inspects the diagnostic bundles the flight
// recorder dumps (webiq-serve -flight-dir):
//
//	webiq-flight list <dir>
//	webiq-flight inspect <bundle.json> [-extract dir]
//
// list shows the bundles in a directory, newest first. inspect renders
// one bundle as a human-readable incident report: what fired the
// trigger, what the runtime looked like, which requests ran in the
// window (and which failed or were shed), what was still in flight,
// which metrics moved since the previous dump, and the trace exemplars
// that link latency quantiles back to concrete traces. -extract writes
// the embedded pprof CPU/heap profiles out as .pprof files for `go tool
// pprof`.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flag"

	"webiq/internal/obs"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  webiq-flight list    <dir>
  webiq-flight inspect <bundle.json> [-extract dir]
`)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("webiq-flight: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		runList(os.Args[2:])
	case "inspect":
		runInspect(os.Args[2:])
	default:
		usage()
	}
}

func runList(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	dir := fs.Arg(0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "flight-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		b, err := obs.ReadBundle(filepath.Join(dir, name))
		if err != nil {
			fmt.Printf("%-52s  (unreadable: %v)\n", name, err)
			continue
		}
		fmt.Printf("%-52s  reason=%-14s events=%-4d in_flight=%d\n",
			name, b.Reason, len(b.WideEvents), len(b.InFlight))
		n++
	}
	if n == 0 {
		fmt.Println("no bundles")
	}
}

func runInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	extract := fs.String("extract", "", "write embedded pprof profiles as .pprof files into this directory")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	b, err := obs.ReadBundle(path)
	if err != nil {
		log.Fatal(err)
	}
	report(b)
	if *extract != "" {
		extractProfiles(b, *extract, strings.TrimSuffix(filepath.Base(path), ".json"))
	}
}

func report(b *obs.Bundle) {
	fmt.Printf("== Incident bundle: %s ==\n", b.Reason)
	fmt.Printf("time          %s\n", b.Time)
	fmt.Printf("window        %.0fs of wide events (%d captured)\n", b.WindowSeconds, len(b.WideEvents))
	if b.TriggerTraceID != "" {
		fmt.Printf("trigger trace %s  (GET /trace/%s on the live server)\n", b.TriggerTraceID, b.TriggerTraceID)
	}
	if len(b.Identity) > 0 {
		keys := sortedKeys(b.Identity)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+b.Identity[k])
		}
		fmt.Printf("identity      %s\n", strings.Join(parts, " "))
	}

	if len(b.Runtime) > 0 {
		last := b.Runtime[len(b.Runtime)-1]
		fmt.Printf("\n-- Runtime (last of %d samples) --\n", len(b.Runtime))
		fmt.Printf("goroutines %d   heap in-use %s   heap alloc %s   sys %s\n",
			last.Goroutines, mb(last.HeapInuseBytes), mb(last.HeapAllocBytes), mb(last.SysBytes))
		fmt.Printf("gc pause p99 %v   gc runs %d   GOMAXPROCS %d\n",
			time.Duration(last.GCPauseP99NS), last.NumGC, last.GOMAXPROCS)
	}

	reportRequests(b.WideEvents)
	reportErrors(b.WideEvents)

	if len(b.InFlight) > 0 {
		fmt.Printf("\n-- In flight at dump time (%d) --\n", len(b.InFlight))
		for _, r := range b.InFlight {
			fmt.Printf("%-16s running %-12v trace %s\n", r.Name, time.Duration(r.RunningNS).Round(time.Millisecond), r.TraceID)
		}
	}

	if len(b.Exemplars) > 0 {
		fmt.Printf("\n-- p99 trace exemplars --\n")
		for _, k := range sortedExemplarKeys(b.Exemplars) {
			ex := b.Exemplars[k]
			fmt.Printf("%-44s %8.3fs  trace %s\n", k, ex.Value, ex.TraceID)
		}
	}

	reportDeltas(b.MetricsDelta)

	if len(b.Traces) > 0 {
		fmt.Printf("\n-- Captured span trees (%d) --\n", len(b.Traces))
		for _, td := range b.Traces {
			fmt.Printf("trace %s\n", td.TraceID)
			for _, n := range td.Spans {
				printSpan(n, 1)
			}
		}
	}

	fmt.Printf("\n-- Profiles --\n")
	fmt.Printf("cpu %s   heap %s", profSize(b.CPUProfile), profSize(b.HeapProfile))
	fmt.Printf("   (webiq-flight inspect -extract DIR writes .pprof files)\n")
}

// reportRequests prints the per-route request table.
func reportRequests(evs []obs.WideEvent) {
	if len(evs) == 0 {
		fmt.Printf("\n-- Requests --\nnone captured in the window\n")
		return
	}
	type agg struct {
		n, errs, sheds int
		worst          float64
	}
	routes := map[string]*agg{}
	for _, ev := range evs {
		a := routes[ev.Route]
		if a == nil {
			a = &agg{}
			routes[ev.Route] = a
		}
		a.n++
		if ev.Status >= 500 {
			a.errs++
		}
		if ev.ShedReason != "" {
			a.sheds++
		}
		if ev.Seconds > a.worst {
			a.worst = ev.Seconds
		}
	}
	fmt.Printf("\n-- Requests in window (%d) --\n", len(evs))
	fmt.Printf("%-14s %6s %6s %6s %10s\n", "route", "count", "5xx", "shed", "worst")
	for _, r := range sortedAggKeys(routes) {
		a := routes[r]
		fmt.Printf("%-14s %6d %6d %6d %9.3fs\n", r, a.n, a.errs, a.sheds, a.worst)
	}
}

// reportErrors lists the individual failed or shed requests with the
// trace IDs an operator follows next.
func reportErrors(evs []obs.WideEvent) {
	var bad []obs.WideEvent
	for _, ev := range evs {
		if ev.Status >= 500 || ev.ShedReason != "" || ev.Trigger != "" {
			bad = append(bad, ev)
		}
	}
	if len(bad) == 0 {
		return
	}
	fmt.Printf("\n-- Errors, sheds, and trigger hits (%d) --\n", len(bad))
	for _, ev := range bad {
		line := fmt.Sprintf("%s %d %s %s (%.3fs)",
			time.Unix(0, ev.TimeNS).UTC().Format("15:04:05.000"), ev.Status, ev.Method, ev.Path, ev.Seconds)
		if ev.ShedReason != "" {
			line += " shed=" + ev.ShedReason
		}
		if ev.Trigger != "" {
			line += " trigger=" + ev.Trigger
		}
		if ev.TraceID != "" {
			line += " trace=" + ev.TraceID
		}
		if ev.BreakerDeep != "" && ev.BreakerDeep != "closed" {
			line += " breaker_deep=" + ev.BreakerDeep
		}
		fmt.Println(line)
	}
}

// reportDeltas prints the biggest metric movers since the last dump.
func reportDeltas(delta map[string]float64) {
	if len(delta) == 0 {
		return
	}
	type mover struct {
		k string
		v float64
	}
	movers := make([]mover, 0, len(delta))
	for k, v := range delta {
		movers = append(movers, mover{k, v})
	}
	sort.Slice(movers, func(i, j int) bool {
		ai, aj := movers[i].v, movers[j].v
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return movers[i].k < movers[j].k
	})
	const top = 15
	n := len(movers)
	if n > top {
		n = top
	}
	fmt.Printf("\n-- Metric movers since previous dump (top %d of %d) --\n", n, len(movers))
	for _, m := range movers[:n] {
		fmt.Printf("%+12.6g  %s\n", m.v, m.k)
	}
}

func printSpan(n *obs.SpanNode, depth int) {
	var label string
	if len(n.Labels) > 0 {
		parts := make([]string, 0, len(n.Labels))
		for _, k := range sortedKeys(n.Labels) {
			parts = append(parts, k+"="+n.Labels[k])
		}
		label = "  [" + strings.Join(parts, " ") + "]"
	}
	fmt.Printf("%s%-20s %v%s\n", strings.Repeat("  ", depth), n.Name,
		time.Duration(n.WallNS).Round(time.Microsecond), label)
	for _, c := range n.Children {
		printSpan(c, depth+1)
	}
}

func extractProfiles(b *obs.Bundle, dir, base string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	write := func(kind string, data []byte) {
		if len(data) == 0 {
			return
		}
		out := filepath.Join(dir, base+"-"+kind+".pprof")
		if err := os.WriteFile(out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", out, len(data))
	}
	write("cpu", b.CPUProfile)
	write("heap", b.HeapProfile)
}

func mb(n uint64) string {
	return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
}

func profSize(p []byte) string {
	if len(p) == 0 {
		return "absent"
	}
	return fmt.Sprintf("%d bytes", len(p))
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedExemplarKeys(m map[string]obs.Exemplar) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedAggKeys[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
