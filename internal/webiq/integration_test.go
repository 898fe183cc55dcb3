package webiq

import (
	"context"
	"strings"
	"sync"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
)

// Shared fixture: building the corpus is the expensive part, so tests
// share one engine, dataset, and source pool per domain.
var (
	fixtureOnce sync.Once
	fixEngine   *surfaceweb.Engine
	fixData     map[string]*schema.Dataset
	fixPools    map[string]*deepweb.Pool
)

func fixture(t *testing.T) (*surfaceweb.Engine, map[string]*schema.Dataset, map[string]*deepweb.Pool) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixEngine = surfaceweb.NewEngine()
		surfaceweb.BuildCorpus(fixEngine, kb.Domains(), surfaceweb.DefaultCorpusConfig())
		fixData = map[string]*schema.Dataset{}
		fixPools = map[string]*deepweb.Pool{}
		for _, dom := range kb.Domains() {
			ds := dataset.Generate(dom, dataset.DefaultConfig())
			fixData[dom.Key] = ds
			fixPools[dom.Key] = deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
		}
	})
	return fixEngine, fixData, fixPools
}

func attrWithLabelPrefix(ds *schema.Dataset, prefix string, predef bool) (*schema.Attribute, *schema.Interface) {
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			if strings.HasPrefix(a.Label, prefix) && a.HasInstances() == predef {
				return a, ifc
			}
		}
	}
	return nil, nil
}

func TestSurfaceDiscoversAirlines(t *testing.T) {
	eng, data, _ := fixture(t)
	ds := data["airfare"]
	a, ifc := attrWithLabelPrefix(ds, "Airline", false)
	if a == nil {
		a, ifc = attrWithLabelPrefix(ds, "Carrier", false)
	}
	if a == nil {
		t.Skip("no free-text airline attribute in this draw")
	}
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	got := s.DiscoverInstancesCtx(context.Background(), a, ifc, ds)
	if len(got) < cfg.K {
		t.Fatalf("discovered %d instances for %q, want >= %d: %v", len(got), a.Label, cfg.K, got)
	}
	known := map[string]bool{}
	for _, x := range append(append([]string{}, kb.AirlinesNA...), kb.AirlinesEU...) {
		known[strings.ToLower(x)] = true
	}
	correct := 0
	for _, g := range got {
		if known[strings.ToLower(g)] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(got)); frac < 0.8 {
		t.Errorf("only %.0f%% of discovered instances are real airlines: %v", 100*frac, got)
	}
}

func TestSurfaceDiscoversAuthors(t *testing.T) {
	eng, data, _ := fixture(t)
	ds := data["book"]
	a, ifc := attrWithLabelPrefix(ds, "Author", false)
	if a == nil {
		t.Skip("no free-text author attribute")
	}
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	got := s.DiscoverInstancesCtx(context.Background(), a, ifc, ds)
	if len(got) < 5 {
		t.Fatalf("discovered %d author instances: %v", len(got), got)
	}
}

func TestSurfaceFailsOnBarePreposition(t *testing.T) {
	eng, data, _ := fixture(t)
	ds := data["airfare"]
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	a := &schema.Attribute{ID: "x", InterfaceID: ds.Interfaces[0].ID, Label: "From"}
	if got := s.DiscoverInstancesCtx(context.Background(), a, ds.Interfaces[0], ds); len(got) != 0 {
		t.Errorf("bare preposition should yield nothing, got %v", got)
	}
	a.Label = "Depart from"
	if got := s.DiscoverInstancesCtx(context.Background(), a, ds.Interfaces[0], ds); len(got) != 0 {
		t.Errorf("verb phrase should yield nothing, got %v", got)
	}
}

func TestSurfaceRejectsNonInstances(t *testing.T) {
	eng, data, _ := fixture(t)
	ds := data["airfare"]
	a, ifc := attrWithLabelPrefix(ds, "Departure city", false)
	if a == nil {
		t.Skip("no free-text departure city attribute")
	}
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	got := s.DiscoverInstancesCtx(context.Background(), a, ifc, ds)
	if len(got) == 0 {
		t.Fatal("no instances for departure city")
	}
	badSet := map[string]bool{}
	for _, x := range kb.CabinClasses {
		badSet[strings.ToLower(x)] = true
	}
	for _, m := range kb.Months {
		badSet[strings.ToLower(m)] = true
	}
	for _, g := range got {
		if badSet[strings.ToLower(g)] {
			t.Errorf("non-city %q among discovered cities %v", g, got)
		}
	}
}

func TestAttrSurfaceBorrowsAirlines(t *testing.T) {
	eng, _, _ := fixture(t)
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	as := NewAttrSurface(v, cfg)
	positives := []string{"Air Canada", "American", "Delta", "United"}
	negatives := []string{"Economy", "First Class", "January", "Sedan"}
	borrowed := []string{"Aer Lingus", "Lufthansa", "Economy", "March"}
	got := as.ValidateBorrowedCtx(context.Background(), "", "Airline", positives, negatives, borrowed)
	gotSet := map[string]bool{}
	for _, g := range got {
		gotSet[g] = true
	}
	if !gotSet["Aer Lingus"] || !gotSet["Lufthansa"] {
		t.Errorf("true airlines rejected: %v", got)
	}
	if gotSet["Economy"] || gotSet["March"] {
		t.Errorf("non-airlines accepted: %v", got)
	}
}

func TestAttrDeepOneThirdRule(t *testing.T) {
	_, data, pools := fixture(t)
	ds := data["airfare"]
	pool := pools["airfare"]
	var a *schema.Attribute
	for _, cand := range ds.AllAttributes() {
		if cand.ConceptID == "airfare.origin_city" && !cand.HasInstances() &&
			pool.Source(cand.InterfaceID).AcceptsPartialQueries() {
			a = cand
			break
		}
	}
	if a == nil {
		t.Skip("no suitable origin-city attribute")
	}
	ad := NewAttrDeep(pool, DefaultConfig())

	cities := []string{"Boston", "Chicago", "New York", "Seattle", "Denver", "Miami"}
	got, ok := ad.ValidateBorrowedCtx(context.Background(), a.InterfaceID, a.ID, a.Label, "City", cities)
	if !ok || len(got) != len(cities) {
		t.Errorf("true cities rejected by deep validation: ok=%v got=%v", ok, got)
	}

	months := []string{"January", "February", "March", "April", "May", "June"}
	if _, ok := ad.ValidateBorrowedCtx(context.Background(), a.InterfaceID, a.ID, a.Label, "Month", months); ok {
		t.Error("months accepted as origin cities by deep validation")
	}
}

func TestAcquirerFillsInstanceLessAttributes(t *testing.T) {
	eng, data, pools := fixture(t)
	dom := kb.DomainByKey("book")
	ds := dataset.Generate(dom, dataset.DefaultConfig()) // fresh copy to mutate
	_ = data
	cfg := DefaultConfig()
	rep := NewPipeline(eng, pools["book"], cfg, AllComponents()).AcquireAllCtx(context.Background(), ds)
	if rep.SuccessRate() < 50 {
		t.Errorf("book acquisition success = %.1f%%, want >= 50%%", rep.SuccessRate())
	}
	// Acquired instances must not duplicate predefined ones.
	for _, a := range ds.AllAttributes() {
		seen := map[string]bool{}
		for _, x := range a.AllInstances() {
			f := strings.ToLower(x)
			if seen[f] {
				t.Errorf("attribute %s has duplicate instance %q", a.ID, x)
			}
			seen[f] = true
		}
	}
}

func TestAcquirerComponentsDisabled(t *testing.T) {
	eng, _, pools := fixture(t)
	dom := kb.DomainByKey("job")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	cfg := DefaultConfig()
	rep := NewPipeline(eng, pools["job"], cfg, Components{}).AcquireAllCtx(context.Background(), ds) // everything off
	for _, o := range rep.Outcomes {
		if o.Acquired != 0 {
			t.Errorf("attribute %s acquired %d instances with all components off", o.AttrID, o.Acquired)
		}
	}
	if rep.SuccessRate() != 0 {
		t.Errorf("success rate = %v with all components off", rep.SuccessRate())
	}
}

func TestReportSuccessRateEmpty(t *testing.T) {
	r := &Report{}
	if r.SuccessRate() != 0 {
		t.Error("empty report success rate should be 0")
	}
}
