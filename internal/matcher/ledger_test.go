package matcher

import (
	"context"
	"fmt"
	"math"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/schema"
)

// TestMergeDecisionsMatchMergeSims pins the matcher's provenance
// contract: every cluster merge is recorded as one ledger decision, in
// merge order, whose Score is the cluster similarity from
// Result.MergeSims and whose α·LabelSim + β·DomSim breakdown recomputes
// that similarity (exact for single link, where the cluster similarity
// is realized by the strongest attribute pair).
func TestMergeDecisionsMatchMergeSims(t *testing.T) {
	dom := kb.DomainByKey("book")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	cfg := DefaultConfig()
	m := New(cfg)
	ledger := obs.NewLedger(nil)
	m.SetLedger(ledger)
	tr := obs.NewTracer(nil)
	m.SetSpanTracer(tr)

	ctx, root := tr.StartSpan(context.Background(), "test")
	traceID := root.TraceID()
	res := m.MatchCtx(ctx, ds)
	root.End()

	var merges []obs.Decision
	for _, d := range ledger.Decisions() {
		if d.Component == "matcher" && d.Verdict == "merge" {
			merges = append(merges, d)
		}
	}
	if len(res.MergeSims) == 0 {
		t.Fatal("no merges performed; contract check vacuous")
	}
	if len(merges) != len(res.MergeSims) {
		t.Fatalf("merge decisions = %d, MergeSims = %d", len(merges), len(res.MergeSims))
	}

	clusterOf := map[string]int{}
	for ci, c := range res.Clusters {
		for _, id := range c {
			clusterOf[id] = ci
		}
	}
	for i, d := range merges {
		if d.MergeOrder != i+1 {
			t.Errorf("merge %d has order %d", i, d.MergeOrder)
		}
		if d.Score != res.MergeSims[i] {
			t.Errorf("merge %d score = %v, MergeSims says %v", i, d.Score, res.MergeSims[i])
		}
		if d.AttrID == "" || d.OtherID == "" || d.AttrID == d.OtherID {
			t.Errorf("merge %d endpoints = %q/%q", i, d.AttrID, d.OtherID)
		}
		if clusterOf[d.AttrID] != clusterOf[d.OtherID] {
			t.Errorf("merge %d endpoints %q and %q landed in different clusters",
				i, d.AttrID, d.OtherID)
		}
		if got := cfg.Alpha*d.LabelSim + cfg.Beta*d.DomSim; math.Abs(got-d.Score) > 1e-9 {
			t.Errorf("merge %d breakdown %.1f·%v + %.1f·%v = %v, score says %v",
				i, cfg.Alpha, d.LabelSim, cfg.Beta, d.DomSim, got, d.Score)
		}
		if d.TraceID != traceID {
			t.Errorf("merge %d trace = %q, want %q", i, d.TraceID, traceID)
		}
	}

	// The run emitted a "match" span joined to the caller's trace.
	foundMatch := false
	for _, r := range tr.TraceRecords(traceID) {
		if r.Name == "match" {
			foundMatch = true
		}
	}
	if !foundMatch {
		t.Error("no match span recorded under the caller's trace")
	}
}

// TestMatchLedgerDoesNotPerturbResult pins that installing the ledger
// leaves the matcher output identical.
func TestMatchLedgerDoesNotPerturbResult(t *testing.T) {
	ds := tinyDataset()
	plain := New(DefaultConfig()).Match(ds)
	m := New(DefaultConfig())
	m.SetLedger(obs.NewLedger(nil))
	led := m.Match(ds)
	if len(plain.Pairs) != len(led.Pairs) {
		t.Fatalf("pairs = %d vs %d with ledger", len(plain.Pairs), len(led.Pairs))
	}
	for p := range plain.Pairs {
		if !led.Pairs[p] {
			t.Errorf("ledger run missing pair %v", p)
		}
	}
	if len(plain.MergeSims) != len(led.MergeSims) {
		t.Fatal("merge sequences differ with ledger")
	}
	for i := range plain.MergeSims {
		if plain.MergeSims[i] != led.MergeSims[i] {
			t.Errorf("merge %d sim %v vs %v with ledger", i, plain.MergeSims[i], led.MergeSims[i])
		}
	}
}

// TestMergeDetailMatchesSprintf pins the hand-built Detail of a merge
// record to the fmt form it replaced, over labels that need quoting and
// the float values fmt spells specially.
func TestMergeDetailMatchesSprintf(t *testing.T) {
	labels := []string{"Author", `Say "hi"`, "Größe", "tab\there", "\x00\xff", ""}
	floats := []float64{0, 0.0005, 0.0015, 0.9995, 1, 0.6, 0.4, -0.0, math.Copysign(0, -1),
		1e-9, 123.4565, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
	for _, a := range labels {
		for _, b := range labels {
			for k, y := range floats {
				// x is a strongest-pair similarity, which a record needs
				// above -1; the weights and label similarity take any value.
				x, z := math.Abs(floats[(k+3)%len(floats)]), floats[(k+7)%len(floats)]
				if math.IsNaN(x) {
					x = 0.25
				}
				m := New(Config{Alpha: y, Beta: z})
				led := obs.NewLedger(nil)
				m.SetLedger(led)
				attrs := []*schema.Attribute{{ID: "i/a", Label: a}, {ID: "j/b", Label: b}}
				profiles := []attrProfile{{labelID: 0, empty: true}, {labelID: 1, empty: true}}
				labelSims := [][]float64{{0, z}, {z, 0}}
				simMat := [][]float64{{0, x}, {x, 0}}
				m.recordMerge(context.Background(), nil, attrs, profiles, labelSims, simMat, []int{0}, []int{1}, x, 1)
				ds := led.Decisions()
				// domSim of two empty profiles is 0.
				want := fmt.Sprintf("strongest pair %q~%q: %.3f = %.1f·%.3f + %.1f·%.3f", a, b, x, y, z, z, 0.0)
				if len(ds) != 1 || ds[0].Detail != want {
					t.Fatalf("decisions %+v, want one with detail %q", ds, want)
				}
			}
		}
	}
}
