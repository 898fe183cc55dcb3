package webiq

import (
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
	rep := acq.AcquireAll(ds)

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
	rep := acq.AcquireAll(ds)
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

// TestBorrowDeepEventEmitted asserts the documented "borrow-deep" kind
// is emitted when step 1.b is entered.
func TestBorrowDeepEventEmitted(t *testing.T) {
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey("book")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	cfg := DefaultConfig()
	acq := NewPipeline(eng, pool, cfg, AllComponents())
	var ct CollectTracer
	acq.SetTracer(&ct)
	acq.AcquireAll(ds)
	kinds := map[string]int{}
	for _, e := range ct.Events() {
		kinds[e.Kind]++
	}
	if kinds["borrow-deep"] == 0 {
		t.Error("no borrow-deep events despite Attr-Deep running")
	}
	if kinds["borrow-deep"] < kinds["borrow-deep-donor"] && kinds["borrow-deep-donor"] > 0 && kinds["borrow-deep"] == 0 {
		t.Error("borrow-deep-donor without borrow-deep")
	}
}

// TestClassifierSkipEventEmitted builds the minimal situation where the
// validation-based classifier cannot be trained (a single positive
// example) and asserts the documented "classifier-skip" kind fires.
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
	var ct CollectTracer
	acq.SetTracer(&ct)
	acq.AcquireAll(ds)
	found := false
	for _, e := range ct.Events() {
		if e.Kind == "classifier-skip" && e.AttrID == "book/t0/a0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no classifier-skip event; events: %+v", ct.Events())
	}
}

// TestObsEventTracerBridgesEvents checks the adapter that lands
// acquisition events in the NDJSON span log.
func TestObsEventTracerBridgesEvents(t *testing.T) {
	tr := obs.NewTracer(nil)
	et := NewObsEventTracer(tr)
	et.Trace(Event{Kind: "surface", AttrID: "d/if0/a1", Label: "Author", Count: 3})
	recs := tr.Records()
	if len(recs) != 1 || recs[0].Name != "surface" || recs[0].Count != 3 {
		t.Fatalf("records = %+v", recs)
	}
	if recs[0].Labels["attr"] != "d/if0/a1" || recs[0].Labels["label"] != "Author" {
		t.Errorf("labels = %v", recs[0].Labels)
	}
}

// TestMultiTracer checks fan-out including nil members.
func TestMultiTracer(t *testing.T) {
	var a, b CollectTracer
	mt := MultiTracer(&a, nil, &b)
	mt.Trace(Event{Kind: "surface"})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("multi tracer did not fan out")
	}
}
