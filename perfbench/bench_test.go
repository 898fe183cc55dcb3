package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"webiq/internal/obs"
	"webiq/internal/surfaceweb"
	iq "webiq/internal/webiq"
)

// ledgerLines renders a ledger as sorted JSON lines without the fields
// that depend on scheduling (Seq under parallel workers) or on tracing
// (trace and span IDs).
func ledgerLines(t *testing.T, l *obs.Ledger) []string {
	t.Helper()
	var out []string
	for _, d := range l.Decisions() {
		d.Seq, d.TraceID, d.SpanID = 0, "", ""
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

type fidelityRun struct {
	report                      string
	ledger                      []string
	digest                      string
	engineQueries, hits, misses int
}

// runOnce builds one domain on a fresh query cache, through the timing
// decorator when decorate is set and with span tracers when trace is.
func runOnce(t *testing.T, in *acquireInputs, d domainInput, decorate, trace bool) fidelityRun {
	t.Helper()
	cache := surfaceweb.NewCachedEngine(in.engine, surfaceweb.DefaultCacheShards)
	var se iq.SearchEngine = cache
	if decorate {
		se = &timedEngine{inner: cache, log: newCallLog(time.Now())}
	}
	var tracer *obs.Tracer
	if trace {
		tracer = obs.NewTracer(nil)
	}
	q0 := in.engine.QueryCount()
	res := build(context.Background(), se, d.pool, cloneDataset(d.ds), iq.AllComponents(), runtime.NumCPU(), tracer)
	rep, err := json.Marshal(res.report)
	if err != nil {
		t.Fatal(err)
	}
	return fidelityRun{
		report:        string(rep),
		ledger:        ledgerLines(t, res.ledger),
		digest:        res.digest,
		engineQueries: in.engine.QueryCount() - q0,
		hits:          cache.Hits(),
		misses:        cache.Misses(),
	}
}

// TestDecoratorFidelity holds the traced run to measuring the same
// program: the timing decorator, alone or with the span tracers, changes
// neither the Report, the ledger, the engine's query count nor the
// cache's hit and miss counts.
func TestDecoratorFidelity(t *testing.T) {
	in := generateInputs(1, 2)
	for _, d := range []domainInput{in.domains[2], in.domains[5]} {
		plain := runOnce(t, in, d, false, false)
		for _, v := range []struct {
			name            string
			decorate, trace bool
		}{{"decorator", true, false}, {"decorator+spans", true, true}} {
			got := runOnce(t, in, d, v.decorate, v.trace)
			if got.report != plain.report {
				t.Errorf("%s %s: Report JSON differs", d.dom.Key, v.name)
			}
			if len(got.ledger) != len(plain.ledger) {
				t.Errorf("%s %s: ledger has %d decisions, want %d", d.dom.Key, v.name, len(got.ledger), len(plain.ledger))
			} else {
				for i := range got.ledger {
					if got.ledger[i] != plain.ledger[i] {
						t.Errorf("%s %s: ledger differs: %s vs %s", d.dom.Key, v.name, got.ledger[i], plain.ledger[i])
						break
					}
				}
			}
			if got.digest != plain.digest {
				t.Errorf("%s %s: digest %s, want %s", d.dom.Key, v.name, got.digest[:8], plain.digest[:8])
			}
			if got.engineQueries != plain.engineQueries || got.hits != plain.hits || got.misses != plain.misses {
				t.Errorf("%s %s: engine queries/hits/misses %d/%d/%d, want %d/%d/%d", d.dom.Key, v.name,
					got.engineQueries, got.hits, got.misses, plain.engineQueries, plain.hits, plain.misses)
			}
		}
	}
}

// TestColdDigestIndependentOfWorkers holds the acquire-cold pipeline to
// AcquireAll's documented determinism: every domain's digest at
// workers = nproc equals the digest at workers = 1.
func TestColdDigestIndependentOfWorkers(t *testing.T) {
	in := generateInputs(1, syntheticDomains)
	for _, d := range in.domains {
		var digests [2]string
		for i, workers := range []int{runtime.NumCPU(), 1} {
			cache := surfaceweb.NewCachedEngine(in.engine, surfaceweb.DefaultCacheShards)
			digests[i] = build(context.Background(), cache, d.pool, cloneDataset(d.ds), iq.AllComponents(), workers, nil).digest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at %d workers, %s at 1", d.dom.Key, digests[0][:8], runtime.NumCPU(), digests[1][:8])
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestCovered(t *testing.T) {
	merged := union([]interval{{5, 8}, {0, 2}, {1, 3}, {10, 20}})
	for _, c := range []struct{ start, end, want int64 }{
		{0, 30, 3 + 3 + 10},
		{2, 6, 1 + 1},
		{3, 5, 0},
		{15, 16, 1},
	} {
		if got := covered(merged, c.start, c.end); got != c.want {
			t.Errorf("covered(%d, %d) = %d, want %d", c.start, c.end, got, c.want)
		}
	}
}
