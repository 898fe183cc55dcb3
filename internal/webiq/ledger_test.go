package webiq

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/surfaceweb"
)

// TestLedgerCoversAcquiredInstances pins the provenance contract behind
// /unified/{domain}/explain: after a full acquisition with the ledger
// installed, every acquired instance of every attribute must have an
// "accept" decision recorded under that attribute, and every decision
// must carry the run's trace identity.
func TestLedgerCoversAcquiredInstances(t *testing.T) {
	acq, ds, reg, tr := instrumentedAcquirer(t, "book", DefaultConfig())
	ledger := obs.NewLedger(nil)
	ledger.Instrument(reg)
	acq.SetLedger(ledger)

	ctx, root := tr.StartSpan(context.Background(), "test-run")
	traceID := root.TraceID()
	acq.AcquireAllCtx(ctx, ds)
	root.End()

	if ledger.Len() == 0 {
		t.Fatal("no decisions recorded")
	}
	total := 0
	for _, a := range ds.AllAttributes() {
		decs := ledger.ByAttr(a.ID)
		for _, v := range a.Acquired {
			total++
			found := false
			for _, d := range decs {
				if d.Verdict == "accept" && strings.EqualFold(d.Value, v) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("attr %s: acquired %q has no accept decision", a.ID, v)
			}
		}
	}
	if total == 0 {
		t.Fatal("acquisition produced no instances; coverage check vacuous")
	}
	for _, d := range ledger.Decisions() {
		if d.TraceID != traceID {
			t.Fatalf("decision %d (%s/%s) trace = %q, want %q",
				d.Seq, d.Component, d.Verdict, d.TraceID, traceID)
		}
		if d.Component == "" || d.Verdict == "" {
			t.Fatalf("decision %d missing component/verdict: %+v", d.Seq, d)
		}
	}

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `webiq_decisions_total{component="surface",verdict="accept"}`) {
		t.Error("exposition missing the surface accept counter")
	}
}

// ledgerRun mirrors acquisitionRun with the span tracer and decision
// ledger installed, on fresh substrates at the given seed.
func ledgerRun(t *testing.T, domain string, seed int64) (*Report, map[string][]string, int, int) {
	t.Helper()
	eng := surfaceweb.NewEngine()
	corpusCfg := surfaceweb.DefaultCorpusConfig()
	corpusCfg.Seed = seed
	surfaceweb.BuildCorpus(eng, kb.Domains(), corpusCfg)

	dom := kb.DomainByKey(domain)
	dataCfg := dataset.DefaultConfig()
	dataCfg.Seed = seed
	ds := dataset.Generate(dom, dataCfg)
	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = seed
	pool := deepweb.BuildPool(ds, dom, deepCfg)

	cfg := DefaultConfig()
	acq := NewPipeline(eng, pool, cfg, AllComponents())
	tr := obs.NewTracer(nil)
	acq.SetSpanTracer(tr)
	acq.SetLedger(obs.NewLedger(nil))

	ctx, root := tr.StartSpan(context.Background(), "ledger-run")
	rep := acq.AcquireAllCtx(ctx, ds)
	root.End()
	got := map[string][]string{}
	for _, a := range ds.AllAttributes() {
		got[a.ID] = a.Acquired
	}
	return rep, got, eng.QueryCount(), pool.QueryCount()
}

// TestLedgerRunByteIdentical pins the zero-interference contract: the
// Report, every attribute's acquired instances, and the substrate query
// counts must be byte-for-byte identical whether or not the tracer and
// ledger are installed.
func TestLedgerRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	cfg := DefaultConfig()
	plainRep, plainGot, plainQ, plainP := acquisitionRun(t, "book", 1, cfg, cfg)
	ledRep, ledGot, ledQ, ledP := ledgerRun(t, "book", 1)

	plainJSON, err := json.Marshal(plainRep)
	if err != nil {
		t.Fatal(err)
	}
	ledJSON, err := json.Marshal(ledRep)
	if err != nil {
		t.Fatal(err)
	}
	if string(plainJSON) != string(ledJSON) {
		t.Errorf("ledger-instrumented Report differs from plain run:\nplain: %s\nled:   %s",
			plainJSON, ledJSON)
	}
	if !reflect.DeepEqual(plainGot, ledGot) {
		for id := range plainGot {
			if !reflect.DeepEqual(plainGot[id], ledGot[id]) {
				t.Errorf("attr %s: plain %v vs ledger %v", id, plainGot[id], ledGot[id])
			}
		}
	}
	if plainQ != ledQ || plainP != ledP {
		t.Errorf("query counts differ: plain %d/%d, ledger %d/%d", plainQ, plainP, ledQ, ledP)
	}
}
