package eval

import (
	"bytes"
	"testing"
)

func testReport(f1 map[string]float64) *QualityReport {
	aggs := map[string]map[string]Aggregate{}
	for name, v := range f1 {
		aggs[name] = map[string]Aggregate{
			"precision": {Mean: v},
			"recall":    {Mean: v},
			"f1":        {Mean: v},
		}
	}
	return &QualityReport{
		SchemaVersion: QualitySchemaVersion,
		Config:        QualityConfig{Runs: 1, Seed: 1, Domains: []string{}},
		Aggregates:    aggs,
	}
}

func TestCompareGate(t *testing.T) {
	base := testReport(map[string]float64{"surface": 0.90, "attr-deep": 0.50})

	// Identical report: gate passes.
	if regs := Compare(base, testReport(map[string]float64{"surface": 0.90, "attr-deep": 0.50}), 0.02); len(regs) != 0 {
		t.Fatalf("identical report flagged: %v", regs)
	}
	// Drop within tolerance passes.
	if regs := Compare(base, testReport(map[string]float64{"surface": 0.885, "attr-deep": 0.50}), 0.02); len(regs) != 0 {
		t.Fatalf("1.5-point drop flagged at 2-point tolerance: %v", regs)
	}
	// A >2-point F1 drop on one stage fails the gate — the ISSUE's
	// demonstrable-failure requirement.
	regs := Compare(base, testReport(map[string]float64{"surface": 0.87, "attr-deep": 0.50}), 0.02)
	if len(regs) != 3 { // precision, recall, f1 all moved in the doctored report
		t.Fatalf("doctored 3-point drop produced %d regressions, want 3: %v", len(regs), regs)
	}
	if regs[0].Metric != "surface" {
		t.Fatalf("regression names metric %q, want surface", regs[0].Metric)
	}
	// Improvement never fails.
	if regs := Compare(base, testReport(map[string]float64{"surface": 0.99, "attr-deep": 0.60}), 0.02); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}
	// A metric vanishing from the current report fails loudly.
	regs = Compare(base, testReport(map[string]float64{"surface": 0.90}), 0.02)
	if len(regs) != 3 {
		t.Fatalf("missing metric produced %d regressions, want 3: %v", len(regs), regs)
	}
}

func TestQualityReportRoundTrip(t *testing.T) {
	rep := testReport(map[string]float64{"surface": 0.9})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadQualityReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Aggregates["surface"]["f1"].Mean != 0.9 {
		t.Fatal("round-trip lost aggregates")
	}

	// Unknown schema versions are rejected.
	rep.SchemaVersion = 99
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadQualityReport(&buf); err == nil {
		t.Fatal("schema version 99 accepted")
	}
}

// TestMeanStddev pins the cross-run aggregate: the mean and population
// stddev of each pooled component, and no entry for a component no run
// reported.
func TestMeanStddev(t *testing.T) {
	var runs []RunResult
	for _, f1 := range []float64{1, 2, 3} {
		runs = append(runs, RunResult{Pooled: map[string]map[string]float64{"match": {"f1": f1}}})
	}
	a := aggregate(runs)["match"]["f1"]
	if a.Mean != 2 {
		t.Fatalf("mean = %v, want 2", a.Mean)
	}
	if a.Stddev < 0.81 || a.Stddev > 0.82 { // sqrt(2/3)
		t.Fatalf("stddev = %v, want ~0.816", a.Stddev)
	}
	if z, ok := aggregate(nil)["match"]["f1"]; ok {
		t.Fatalf("aggregate over no runs = %+v, want no entry", z)
	}
}
