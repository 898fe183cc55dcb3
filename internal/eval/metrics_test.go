package eval

import (
	"math"
	"testing"

	"webiq/internal/matcher"
	"webiq/internal/obs"
	"webiq/internal/schema"
	iq "webiq/internal/webiq"
)

// fixtureArtifacts builds a hand-crafted run: two attributes of the same
// concept ("city"), one findable instance-less (served by surface), one
// predefined (served by attr-surface). The ledger records two correct
// surface accepts and one wrong one.
func fixtureArtifacts() *Artifacts {
	set := &Set{
		ID: "fix", Domain: "fix",
		Attrs: []AttrGold{
			{AttrID: "a1", InterfaceID: "if0", Label: "City", ConceptID: "fix.city",
				Findable: true, Instances: []string{"boston", "chicago", "denver"}},
			{AttrID: "a2", InterfaceID: "if1", Label: "Town", ConceptID: "fix.city",
				Predefined: true, Findable: true, Instances: []string{"boston", "chicago", "denver"}},
		},
		Clusters: [][]string{{"a1", "a2"}},
		Pairs:    []schema.MatchPair{schema.NewMatchPair("a1", "a2")},
	}

	ledger := obs.NewLedger(nil)
	ledger.Record(obs.Decision{Component: "surface", Verdict: "accept", AttrID: "a1", Value: "Boston", Score: 0.9})
	ledger.Record(obs.Decision{Component: "surface", Verdict: "degraded-accept", AttrID: "a1", Value: "Chicago", Score: 0.8})
	ledger.Record(obs.Decision{Component: "surface", Verdict: "accept", AttrID: "a1", Value: "Banana", Score: 0.6})
	// Duplicate accept (cached replay) must not double-count.
	ledger.Record(obs.Decision{Component: "surface", Verdict: "accept", AttrID: "a1", Value: "boston", Score: 0.9})
	// Rejects never count.
	ledger.Record(obs.Decision{Component: "surface", Verdict: "reject", AttrID: "a1", Value: "Denver", Score: 0.1})

	ds := &schema.Dataset{Domain: "fix", Interfaces: []*schema.Interface{
		{ID: "if0", Attributes: []*schema.Attribute{
			{ID: "a1", InterfaceID: "if0", Label: "City", Acquired: []string{"Boston", "Chicago", "Banana"}},
		}},
		{ID: "if1", Attributes: []*schema.Attribute{
			{ID: "a2", InterfaceID: "if1", Label: "Town",
				Instances: []string{"Boston", "Chicago", "Denver"}},
		}},
	}}

	match := &matcher.Result{
		Clusters: [][]string{{"a1", "a2"}},
		Pairs:    map[schema.MatchPair]bool{schema.NewMatchPair("a1", "a2"): true},
	}
	rep := &iq.Report{
		Outcomes: []iq.Outcome{
			{AttrID: "a1", Acquired: 3, Success: true},
			{AttrID: "a2", HadInstances: true},
		},
		Degradations: []iq.Degradation{{Stage: "surface", Reason: "test"}},
	}
	return &Artifacts{
		Set: set, Dataset: ds, Report: rep, Ledger: ledger,
		Match: match, K: 3, TraceID: "t1",
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestStageMetricFromLedger(t *testing.T) {
	art := fixtureArtifacts()
	vals := StageMetric{Stage: "surface"}.Compute(art)

	// 3 distinct accepted values (boston deduped), 2 correct.
	if vals["n_accepted"] != 3 || vals["n_correct"] != 2 {
		t.Fatalf("accepted/correct = %v/%v, want 3/2", vals["n_accepted"], vals["n_correct"])
	}
	if !near(vals["precision"], 2.0/3.0) {
		t.Fatalf("precision = %v, want 2/3", vals["precision"])
	}
	// Recall target: only a1 (instance-less, findable); min(K=3, |gold|=3).
	if vals["n_target"] != 3 || vals["n_got"] != 2 {
		t.Fatalf("target/got = %v/%v, want 3/2", vals["n_target"], vals["n_got"])
	}
	if !near(vals["recall"], 2.0/3.0) {
		t.Fatalf("recall = %v, want 2/3", vals["recall"])
	}

	// Attr-surface saw no decisions: zero accepted, recall charged on
	// the predefined a2.
	as := StageMetric{Stage: "attr-surface"}.Compute(art)
	if as["n_accepted"] != 0 || as["n_target"] != 3 || as["recall"] != 0 {
		t.Fatalf("attr-surface = %+v, want 0 accepted, target 3, recall 0", as)
	}
}

func TestAcquiredAndMatchMetrics(t *testing.T) {
	art := fixtureArtifacts()

	aq := AcquiredMetric{}.Compute(art)
	if aq["n_accepted"] != 3 || aq["n_correct"] != 2 {
		t.Fatalf("acquired accepted/correct = %v/%v, want 3/2", aq["n_accepted"], aq["n_correct"])
	}
	if aq["success_rate"] != 1 {
		t.Fatalf("success_rate = %v, want 1", aq["success_rate"])
	}

	mv := MatchMetric{}.Compute(art)
	if mv["precision"] != 1 || mv["recall"] != 1 || mv["f1"] != 1 {
		t.Fatalf("match P/R/F1 = %v/%v/%v, want 1/1/1", mv["precision"], mv["recall"], mv["f1"])
	}
	if mv["cluster_exact"] != 1 || mv["n_clusters_exact"] != 1 {
		t.Fatalf("cluster components = %+v, want exact 1/1", mv)
	}

	dg := DegradationMetric{}.Compute(art)
	if dg["n_total"] != 1 || dg["n_surface"] != 1 {
		t.Fatalf("degradation = %+v, want total 1, surface 1", dg)
	}
}

func TestPoolMicroAverage(t *testing.T) {
	m := StageMetric{Stage: "surface"}
	pooled := m.Pool([]map[string]float64{
		// Big domain: 90/100 correct, 90/100 recalled.
		{"n_correct": 90, "n_accepted": 100, "n_got": 90, "n_target": 100},
		// Tiny domain: 0/1 — must not drag the average to 0.5.
		{"n_correct": 0, "n_accepted": 1, "n_got": 0, "n_target": 1},
	})
	if !near(pooled["precision"], 90.0/101.0) {
		t.Fatalf("micro precision = %v, want 90/101", pooled["precision"])
	}
	if !near(pooled["recall"], 90.0/101.0) {
		t.Fatalf("micro recall = %v, want 90/101", pooled["recall"])
	}
}
