package webiq

import (
	"context"
	"strings"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/schema"
)

// instrumentedAcquirer builds a fully-wired acquirer over the shared
// fixture with a fresh registry and collect-only span tracer installed.
func instrumentedAcquirer(t *testing.T, domain string, cfg Config) (*Acquirer, *schema.Dataset, *obs.Registry, *obs.Tracer) {
	t.Helper()
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey(domain)
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	acq := NewPipeline(eng, pool, cfg, AllComponents())
	reg := obs.NewRegistry()
	acq.SetObserver(reg)
	tr := obs.NewTracer(nil)
	acq.SetSpanTracer(tr)
	return acq, ds, reg, tr
}

// TestAcquirerMetricsReconcileWithReport asserts the acceptance
// criterion that the metrics, the span log, and the Report's Figure-8
// overhead fields agree on the same numbers.
func TestAcquirerMetricsReconcileWithReport(t *testing.T) {
	acq, ds, reg, tr := instrumentedAcquirer(t, "book", DefaultConfig())
	rep := acq.AcquireAllCtx(context.Background(), ds)

	// Component query counters must equal the Report fields exactly.
	queries := map[string]int{
		"surface":      rep.SurfaceQueries,
		"attr-deep":    rep.AttrDeepQueries,
		"attr-surface": rep.AttrSurfaceQueries,
	}
	virtual := map[string]time.Duration{
		"surface":      rep.SurfaceTime,
		"attr-deep":    rep.AttrDeepTime,
		"attr-surface": rep.AttrSurfaceTime,
	}
	for comp, want := range queries {
		got := acq.mCompQueries.With(comp).Value()
		if got != float64(want) {
			t.Errorf("metric queries[%s] = %v, Report says %d", comp, got, want)
		}
	}
	// Virtual-seconds counters accumulate float seconds; allow for
	// rounding across many small additions.
	for comp, want := range virtual {
		got := acq.mCompVirtual.With(comp).Value()
		if diff := got - want.Seconds(); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("metric virtual[%s] = %vs, Report says %vs", comp, got, want.Seconds())
		}
	}

	// Span totals per component must reproduce the same Report fields.
	totals := map[string]obs.Totals{}
	for _, tot := range tr.TotalsByName() {
		totals[tot.Name] = tot
	}
	for comp, want := range queries {
		if got := totals[comp].Queries; got != want {
			t.Errorf("span queries[%s] = %d, Report says %d", comp, got, want)
		}
	}
	for comp, want := range virtual {
		if got := totals[comp].Virtual; got != want {
			t.Errorf("span virtual[%s] = %v, Report says %v", comp, got, want)
		}
	}
	// The run-level span carries the grand totals.
	all := totals["acquire-all"]
	if all.Spans != 1 {
		t.Fatalf("acquire-all spans = %d, want 1", all.Spans)
	}
	if want := rep.SurfaceQueries + rep.AttrSurfaceQueries + rep.AttrDeepQueries; all.Queries != want {
		t.Errorf("acquire-all queries = %d, want %d", all.Queries, want)
	}

	// The attribute-result counters must cover every outcome.
	var nPre, nSucc, nFail int
	for _, o := range rep.Outcomes {
		switch {
		case o.HadInstances:
			nPre++
		case o.Success:
			nSucc++
		default:
			nFail++
		}
	}
	if got := acq.mAttrs.With("predefined").Value(); got != float64(nPre) {
		t.Errorf("attrs{predefined} = %v, want %d", got, nPre)
	}
	if got := acq.mAttrs.With("success").Value(); got != float64(nSucc) {
		t.Errorf("attrs{success} = %v, want %d", got, nSucc)
	}
	if got := acq.mAttrs.With("failed").Value(); got != float64(nFail) {
		t.Errorf("attrs{failed} = %v, want %d", got, nFail)
	}

	// The exposition must carry the acquirer families.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, fam := range []string{
		"webiq_acquire_attributes_total",
		"webiq_acquire_component_queries_total",
		"webiq_acquire_component_virtual_seconds_total",
		"webiq_classifier_decisions_total",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing family %q", fam)
		}
	}
}

// TestAcquirerMetricsReconcileParallel repeats the reconciliation under
// the concurrent Surface phase, where the whole phase is charged to the
// surface component by one span.
func TestAcquirerMetricsReconcileParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	acq, ds, _, tr := instrumentedAcquirer(t, "job", cfg)
	rep := acq.AcquireAllCtx(context.Background(), ds)
	totals := map[string]obs.Totals{}
	for _, tot := range tr.TotalsByName() {
		totals[tot.Name] = tot
	}
	if got := totals["surface"].Queries; got != rep.SurfaceQueries {
		t.Errorf("span queries[surface] = %d, Report says %d", got, rep.SurfaceQueries)
	}
	if got := totals["surface"].Virtual; got != rep.SurfaceTime {
		t.Errorf("span virtual[surface] = %v, Report says %v", got, rep.SurfaceTime)
	}
	if got := acq.mCompQueries.With("surface").Value(); got != float64(rep.SurfaceQueries) {
		t.Errorf("metric queries[surface] = %v, Report says %d", got, rep.SurfaceQueries)
	}
}

// TestBorrowDeepEventEmitted asserts the book run records at least one
// Attr-Deep per-donor verdict: the ledger entry step 1.b writes for
// every donor it probes.
func TestBorrowDeepEventEmitted(t *testing.T) {
	l := policyLedger(t, "book", DefaultConfig())
	if countDecisions(l, "attr-deep", true, "accept", "reject", "skip") == 0 {
		t.Error("no attr-deep per-donor verdicts despite Attr-Deep running")
	}
}

// TestClassifierSkipEventEmitted builds the minimal situation where the
// validation-based classifier cannot be trained (a single positive
// example) and asserts the ledger records the attr-surface "skip".
func TestClassifierSkipEventEmitted(t *testing.T) {
	eng, _, _ := fixture(t)
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	ds := &schema.Dataset{
		Domain:        "book",
		EntityName:    "book",
		DomainKeyword: "book",
		Interfaces: []*schema.Interface{
			{
				ID: "book/t0", Domain: "book", Source: "t0",
				Attributes: []*schema.Attribute{
					// One predefined instance: too few positives to
					// split into T1/T2, so training must fail.
					{ID: "book/t0/a0", InterfaceID: "book/t0", Label: "Author",
						Instances: []string{"Mark Twain"}},
				},
			},
			{
				ID: "book/t1", Domain: "book", Source: "t1",
				Attributes: []*schema.Attribute{
					// Donor with enough very similar values to borrow.
					{ID: "book/t1/a0", InterfaceID: "book/t1", Label: "Author",
						Instances: []string{"Mark Twain", "Jane Austen", "Leo Tolstoy", "Toni Morrison"}},
				},
			},
		},
	}
	acq := NewAcquirer(nil, nil, NewAttrSurface(v, cfg),
		Components{AttrSurface: true}, cfg)
	l := obs.NewLedger(nil)
	acq.SetLedger(l)
	acq.AcquireAllCtx(context.Background(), ds)
	found := false
	for _, d := range l.ByAttr("book/t0/a0") {
		if d.Component == "attr-surface" && d.Verdict == "skip" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no attr-surface skip decision; ledger: %+v", l.Decisions())
	}
}
