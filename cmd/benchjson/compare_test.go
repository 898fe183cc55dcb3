package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func run(name string, iters int64, metrics map[string]float64) Run {
	return Run{Name: name, Iterations: iters, Metrics: metrics}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkPipeline/seed-8":     "BenchmarkPipeline/seed",
		"BenchmarkPipeline/seed-16":    "BenchmarkPipeline/seed",
		"BenchmarkPipeline/seed":       "BenchmarkPipeline/seed",
		"BenchmarkCorpusScale/x10-4":   "BenchmarkCorpusScale/x10",
		"BenchmarkCorpusScale/x10-ab":  "BenchmarkCorpusScale/x10-ab",
		"BenchmarkFoo-":                "BenchmarkFoo-",
		"BenchmarkScale/factor=1.5x-8": "BenchmarkScale/factor=1.5x",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseRegress(t *testing.T) {
	for in, want := range map[string]float64{"10%": 0.1, "0.1": 0.1, "25 %": 0.25, "0": 0} {
		got, err := parseRegress(in)
		if err != nil || got != want {
			t.Errorf("parseRegress(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "abc", "-5%"} {
		if _, err := parseRegress(in); err == nil {
			t.Errorf("parseRegress(%q): want error", in)
		}
	}
}

func specs(def float64, units ...string) []metricSpec {
	out := make([]metricSpec, 0, len(units))
	for _, u := range units {
		out = append(out, metricSpec{unit: u, threshold: def})
	}
	return out
}

func TestCompareReports(t *testing.T) {
	metrics := specs(0.1, "B/op", "allocs/op")
	old := Report{Runs: []Run{
		run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1e9, "B/op": 1000, "allocs/op": 100}),
		run("BenchmarkPipeline/cached-parallel-8", 3, map[string]float64{"ns/op": 4e8, "B/op": 2000, "allocs/op": 200}),
	}}

	t.Run("pass within threshold", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-16", 3, map[string]float64{"B/op": 1050, "allocs/op": 100}),
			run("BenchmarkPipeline/cached-parallel-16", 3, map[string]float64{"B/op": 1500, "allocs/op": 190}),
		}}
		var sb strings.Builder
		if !compareReports(&sb, old, new_, metrics) {
			t.Fatalf("want pass, got fail:\n%s", sb.String())
		}
	})

	t.Run("fail beyond threshold", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"B/op": 1200, "allocs/op": 100}),
			run("BenchmarkPipeline/cached-parallel-8", 3, map[string]float64{"B/op": 2000, "allocs/op": 200}),
		}}
		var sb strings.Builder
		if compareReports(&sb, old, new_, metrics) {
			t.Fatal("want fail on 20% B/op regression, got pass")
		}
		if !strings.Contains(sb.String(), "REGRESSION") {
			t.Errorf("output missing REGRESSION marker:\n%s", sb.String())
		}
	})

	t.Run("fail on missing run", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"B/op": 1000, "allocs/op": 100}),
		}}
		var sb strings.Builder
		if compareReports(&sb, old, new_, metrics) {
			t.Fatal("want fail when a baseline run is missing, got pass")
		}
	})

	t.Run("fail on missing metric", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"B/op": 1000}),
			run("BenchmarkPipeline/cached-parallel-8", 3, map[string]float64{"B/op": 2000, "allocs/op": 200}),
		}}
		var sb strings.Builder
		if compareReports(&sb, old, new_, metrics) {
			t.Fatal("want fail when a gated metric is dropped, got pass")
		}
	})

	t.Run("improvements never fail", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"B/op": 1, "allocs/op": 1}),
			run("BenchmarkPipeline/cached-parallel-8", 3, map[string]float64{"B/op": 1, "allocs/op": 1}),
		}}
		var sb strings.Builder
		if !compareReports(&sb, old, new_, specs(0, "B/op", "allocs/op")) {
			t.Fatalf("want pass on pure improvement even at 0 threshold:\n%s", sb.String())
		}
	})
}

func TestParseMetricSpecs(t *testing.T) {
	got, err := parseMetricSpecs("ns/op=25%, B/op ,allocs/op", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := []metricSpec{
		{unit: "ns/op", threshold: 0.25},
		{unit: "B/op", threshold: 0.1},
		{unit: "allocs/op", threshold: 0.1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d specs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"ns/op=abc", "=10%", "ns/op=-5%"} {
		if _, err := parseMetricSpecs(bad, 0.1); err == nil {
			t.Errorf("parseMetricSpecs(%q): want error", bad)
		}
	}
}

func TestCompareReportsPerMetricThresholds(t *testing.T) {
	// ns/op gated loose (25%), allocs/op tight (10%).
	metrics := []metricSpec{
		{unit: "ns/op", threshold: 0.25},
		{unit: "allocs/op", threshold: 0.1},
	}
	old := Report{Runs: []Run{
		run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1000, "allocs/op": 100}),
	}}

	t.Run("wall-clock noise inside loose bound passes", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1200, "allocs/op": 105}),
		}}
		var sb strings.Builder
		if !compareReports(&sb, old, new_, metrics) {
			t.Fatalf("+20%% ns/op should pass the 25%% bound:\n%s", sb.String())
		}
	})
	t.Run("wall-clock regression beyond loose bound fails", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1300, "allocs/op": 100}),
		}}
		var sb strings.Builder
		if compareReports(&sb, old, new_, metrics) {
			t.Fatalf("+30%% ns/op must fail the 25%% bound:\n%s", sb.String())
		}
	})
	t.Run("alloc regression inside loose but beyond tight bound fails", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1000, "allocs/op": 120}),
		}}
		var sb strings.Builder
		if compareReports(&sb, old, new_, metrics) {
			t.Fatalf("+20%% allocs/op must fail the 10%% bound:\n%s", sb.String())
		}
	})
}

func TestParseBenchText(t *testing.T) {
	rep, err := parseBenchText(`
goos: linux
BenchmarkPipeline/seed-8   3   980585804 ns/op   123456 B/op   4567 allocs/op
PASS
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(rep.Runs))
	}
	r := rep.Runs[0]
	if r.Name != "BenchmarkPipeline/seed-8" || r.Metrics["allocs/op"] != 4567 {
		t.Errorf("unexpected run: %+v", r)
	}
}

func TestCompareReportsNewRunsInformational(t *testing.T) {
	metrics := specs(0.1, "ns/op")
	old := Report{Runs: []Run{
		run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1000}),
	}}
	new_ := Report{Runs: []Run{
		run("BenchmarkPipeline/seed-4", 3, map[string]float64{"ns/op": 1000}),
		run("BenchmarkPipeline/parallel-8-4", 3, map[string]float64{"ns/op": 500, "eff%": 80}),
		run("BenchmarkPipeline/parallel-16-4", 3, map[string]float64{"ns/op": 400, "eff%": 60}),
	}}
	var sb strings.Builder
	if !compareReports(&sb, old, new_, metrics) {
		t.Fatalf("runs new in the report must not fail the gate:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{"NEW  BenchmarkPipeline/parallel-8", "NEW  BenchmarkPipeline/parallel-16"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NEW  BenchmarkPipeline/seed") {
		t.Errorf("matched run reported as NEW:\n%s", out)
	}
}

func TestParseMetricSpecsLowerWorse(t *testing.T) {
	got, err := parseMetricSpecs("ns/op=25%,<eff%=15%, <speedup ", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := []metricSpec{
		{unit: "ns/op", threshold: 0.25},
		{unit: "eff%", threshold: 0.15, lowerWorse: true},
		{unit: "speedup", threshold: 0.1, lowerWorse: true},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d specs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, err := parseMetricSpecs("<", 0.1); err == nil {
		t.Error(`parseMetricSpecs("<"): want error for empty unit`)
	}
}

func TestCompareReportsLowerWorse(t *testing.T) {
	metrics := []metricSpec{{unit: "eff%", threshold: 0.15, lowerWorse: true}}
	old := Report{Runs: []Run{
		run("BenchmarkPipeline/parallel-8-8", 3, map[string]float64{"eff%": 80}),
	}}

	t.Run("drop inside threshold passes", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/parallel-8-4", 3, map[string]float64{"eff%": 72}),
		}}
		var sb strings.Builder
		if !compareReports(&sb, old, new_, metrics) {
			t.Fatalf("-10%% eff%% should pass the 15%% bound:\n%s", sb.String())
		}
	})
	t.Run("drop beyond threshold fails", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/parallel-8-4", 3, map[string]float64{"eff%": 60}),
		}}
		var sb strings.Builder
		if compareReports(&sb, old, new_, metrics) {
			t.Fatalf("-25%% eff%% must fail the 15%% bound:\n%s", sb.String())
		}
		if !strings.Contains(sb.String(), "REGRESSION") {
			t.Errorf("output missing REGRESSION marker:\n%s", sb.String())
		}
	})
	t.Run("rise never fails a lower-is-worse unit", func(t *testing.T) {
		new_ := Report{Runs: []Run{
			run("BenchmarkPipeline/parallel-8-4", 3, map[string]float64{"eff%": 200}),
		}}
		var sb strings.Builder
		if !compareReports(&sb, old, new_, metrics) {
			t.Fatalf("+150%% eff%% is an improvement, must pass:\n%s", sb.String())
		}
	})
}

// TestCompareReportsColdStart pins the cold-start gate conventions:
// BenchmarkColdStart runs are NEW-informational before the baseline is
// refreshed, and once committed, the snapshot-load advantage (xrebuild,
// lower is worse) is gated alongside ns/op without any unit-specific
// code in benchjson.
func TestCompareReportsColdStart(t *testing.T) {
	metrics := []metricSpec{
		{unit: "ns/op", threshold: 0.25},
		{unit: "xrebuild", threshold: 0.25, lowerWorse: true},
	}
	coldRuns := func(loadNs, xrebuild float64) []Run {
		return []Run{
			run("BenchmarkColdStart/rebuild-10x-8", 1, map[string]float64{"ns/op": 18e9}),
			run("BenchmarkColdStart/snapshot-load-10x-8", 1,
				map[string]float64{"ns/op": loadNs, "xrebuild": xrebuild}),
		}
	}

	t.Run("first run is NEW and informational", func(t *testing.T) {
		old := Report{Runs: []Run{
			run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1000}),
		}}
		new_ := Report{Runs: append(
			[]Run{run("BenchmarkPipeline/seed-8", 3, map[string]float64{"ns/op": 1000})},
			coldRuns(1e8, 180)...,
		)}
		var sb strings.Builder
		if !compareReports(&sb, old, new_, metrics) {
			t.Fatalf("ColdStart runs absent from the baseline must not fail the gate:\n%s", sb.String())
		}
		if !strings.Contains(sb.String(), "NEW  BenchmarkColdStart/snapshot-load-10x") {
			t.Errorf("output missing NEW marker for the cold-start run:\n%s", sb.String())
		}
	})

	t.Run("xrebuild collapse fails once committed", func(t *testing.T) {
		old := Report{Runs: coldRuns(1e8, 180)}
		// Snapshot load got 3x slower: xrebuild collapses 180 -> 60.
		new_ := Report{Runs: coldRuns(3e8, 60)}
		var sb strings.Builder
		if compareReports(&sb, old, new_, metrics) {
			t.Fatalf("a 3x slower snapshot load must fail the xrebuild gate:\n%s", sb.String())
		}
		if !strings.Contains(sb.String(), "REGRESSION") {
			t.Errorf("output missing REGRESSION marker:\n%s", sb.String())
		}
	})

	t.Run("faster rebuild shrinking xrebuild within bound passes", func(t *testing.T) {
		old := Report{Runs: coldRuns(1e8, 180)}
		new_ := Report{Runs: coldRuns(1e8, 150)}
		var sb strings.Builder
		if !compareReports(&sb, old, new_, metrics) {
			t.Fatalf("-17%% xrebuild should pass the 25%% bound:\n%s", sb.String())
		}
	})
}

// TestCompareReportsSkipsScalingWiderThanCPUs pins the CPU-width rule:
// eff% of a parallel-N run is not gated, and a SKIP line says why, when
// N exceeds the CPU count either report records; narrower runs and the
// other metrics of wide runs are still gated, and a baseline without a
// recorded CPU count defers to the new report's.
func TestCompareReportsSkipsScalingWiderThanCPUs(t *testing.T) {
	metrics := []metricSpec{
		{unit: "allocs/op", threshold: 0.1},
		{unit: "eff%", threshold: 0.25, lowerWorse: true},
	}
	curve := func(numCPU int, eff2, eff8 float64) Report {
		return Report{NumCPU: numCPU, Runs: []Run{
			run("BenchmarkPipeline/parallel-2-8", 3, map[string]float64{"allocs/op": 100, "eff%": eff2}),
			run("BenchmarkPipeline/parallel-8-8", 3, map[string]float64{"allocs/op": 100, "eff%": eff8}),
		}}
	}

	t.Run("new run narrower than N skips", func(t *testing.T) {
		var sb strings.Builder
		if !compareReports(&sb, curve(8, 90, 70), curve(2, 90, 20), metrics) {
			t.Fatalf("eff%% of parallel-8 on 2 CPUs must not be gated:\n%s", sb.String())
		}
		if !strings.Contains(sb.String(), "SKIP BenchmarkPipeline/parallel-8 eff%: parallel-8 is wider than the 2 CPUs recorded (old 8, new 2)") {
			t.Errorf("output missing the SKIP line with its reason:\n%s", sb.String())
		}
		if strings.Contains(sb.String(), "SKIP BenchmarkPipeline/parallel-2") {
			t.Errorf("parallel-2 fits 2 CPUs and must be gated:\n%s", sb.String())
		}
	})
	t.Run("baseline narrower than N skips", func(t *testing.T) {
		var sb strings.Builder
		if !compareReports(&sb, curve(2, 90, 20), curve(8, 90, 70), metrics) {
			t.Fatalf("a baseline recorded on 2 CPUs must not gate parallel-8:\n%s", sb.String())
		}
		if !strings.Contains(sb.String(), "SKIP BenchmarkPipeline/parallel-8 eff%") {
			t.Errorf("output missing the SKIP line:\n%s", sb.String())
		}
	})
	t.Run("runs that fit are still gated", func(t *testing.T) {
		var sb strings.Builder
		if compareReports(&sb, curve(2, 90, 70), curve(2, 50, 70), metrics) {
			t.Fatalf("a parallel-2 eff%% collapse on 2 CPUs must fail:\n%s", sb.String())
		}
	})
	t.Run("other metrics of a wide run are still gated", func(t *testing.T) {
		new_ := curve(2, 90, 20)
		new_.Runs[1].Metrics["allocs/op"] = 200
		var sb strings.Builder
		if compareReports(&sb, curve(8, 90, 70), new_, metrics) {
			t.Fatalf("allocs/op of parallel-8 must be gated on any width:\n%s", sb.String())
		}
	})
	t.Run("baseline without a CPU count uses the new one", func(t *testing.T) {
		var sb strings.Builder
		if !compareReports(&sb, curve(0, 90, 70), curve(2, 90, 20), metrics) {
			t.Fatalf("want SKIP from the new report's CPU count:\n%s", sb.String())
		}
		if !strings.Contains(sb.String(), "SKIP BenchmarkPipeline/parallel-8 eff%") {
			t.Errorf("output missing the SKIP line:\n%s", sb.String())
		}
		sb.Reset()
		if compareReports(&sb, curve(0, 90, 70), curve(8, 90, 20), metrics) {
			t.Fatalf("parallel-8 fits 8 CPUs; its eff%% collapse must fail:\n%s", sb.String())
		}
	})
	t.Run("neither report records a CPU count", func(t *testing.T) {
		var sb strings.Builder
		if compareReports(&sb, curve(0, 90, 70), curve(0, 90, 20), metrics) {
			t.Fatalf("without a recorded CPU count eff%% is gated as before:\n%s", sb.String())
		}
		if strings.Contains(sb.String(), "SKIP") {
			t.Errorf("unexpected SKIP without a recorded CPU count:\n%s", sb.String())
		}
	})
}

func TestParallelWidth(t *testing.T) {
	cases := map[string]int{
		"BenchmarkPipeline/parallel-8":  8,
		"BenchmarkPipeline/parallel-16": 16,
		"BenchmarkPipeline/seed":        0,
		"BenchmarkPipeline/parallel-x":  0,
		"BenchmarkParallelAcquisition":  0,
	}
	for in, want := range cases {
		if got := parallelWidth(in); got != want {
			t.Errorf("parallelWidth(%q) = %d, want %d", in, got, want)
		}
	}
}

// TestReportCPUFields pins the JSON names of the recorded machine width
// and that a baseline written before they existed still loads.
func TestReportCPUFields(t *testing.T) {
	rep, err := parseBenchText("BenchmarkPipeline/seed-8   3   100 ns/op\n")
	if err != nil {
		t.Fatal(err)
	}
	stampHost(&rep)
	if rep.NumCPU != runtime.NumCPU() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("stamped %d CPUs / GOMAXPROCS %d, want %d / %d", rep.NumCPU, rep.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"num_cpu":`) || !strings.Contains(string(data), `"gomaxprocs":`) {
		t.Errorf("report JSON lacks num_cpu/gomaxprocs: %s", data)
	}
	var old Report
	if err := json.Unmarshal([]byte(`{"cpu": "x", "runs": [{"name": "BenchmarkPipeline/seed-8", "iterations": 3, "metrics": {"ns/op": 1}}]}`), &old); err != nil {
		t.Fatalf("baseline without CPU fields: %v", err)
	}
	if old.NumCPU != 0 || old.GOMAXPROCS != 0 || len(old.Runs) != 1 {
		t.Errorf("baseline without CPU fields loaded as %+v", old)
	}
}
