package webiq

import (
	"context"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
)

// policyLedger acquires one paper domain with every component on and
// returns the run's provenance ledger.
func policyLedger(t *testing.T, domain string, cfg Config) *obs.Ledger {
	t.Helper()
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey(domain)
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	acq := NewPipeline(eng, pool, cfg, AllComponents())
	l := obs.NewLedger(nil)
	acq.SetLedger(l)
	acq.AcquireAllCtx(context.Background(), ds)
	return l
}

// countDecisions counts the ledger decisions of one component whose
// verdict is among verdicts; perDonor restricts the count to batch
// verdicts (no Value), the Attr-Deep one-third rule's per-donor record.
func countDecisions(l *obs.Ledger, component string, perDonor bool, verdicts ...string) int {
	n := 0
	for _, d := range l.Decisions() {
		if d.Component != component || (perDonor && d.Value != "") {
			continue
		}
		for _, v := range verdicts {
			if d.Verdict == v {
				n++
				break
			}
		}
	}
	return n
}

// TestTracerReceivesEvents checks that the ledger records every step of
// the acquisition policy for the book domain: Surface accepts (step
// 1.a) and Attr-Surface accept/reject verdicts (step 2), each carrying
// the attribute's identity.
func TestTracerReceivesEvents(t *testing.T) {
	l := policyLedger(t, "book", DefaultConfig())
	for _, d := range l.Decisions() {
		if d.Component != "matcher" && (d.AttrID == "" || d.Label == "") {
			t.Errorf("decision missing identity: %+v", d)
		}
	}
	if countDecisions(l, "surface", false, "accept") == 0 {
		t.Error("no surface accept decisions")
	}
	if countDecisions(l, "attr-surface", false, "accept", "reject") == 0 {
		t.Error("no attr-surface accept/reject decisions")
	}
}

// TestTracerWithParallelism checks the ledger keeps its Attr-Deep
// per-donor coverage under parallel acquisition.
func TestTracerWithParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	l := policyLedger(t, "book", cfg)
	if countDecisions(l, "attr-deep", true, "accept", "reject", "skip") == 0 {
		t.Error("no attr-deep per-donor verdicts under parallel acquisition")
	}
}
