package translate

import (
	"context"
	"errors"
	"strings"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/matcher"
	"webiq/internal/unify"
)

func setup(t *testing.T) (*Translator, int) {
	t.Helper()
	dom := kb.DomainByKey("airfare")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	cfg := deepweb.DefaultConfig()
	cfg.PartialQueryProb = 1
	pool := deepweb.BuildPool(ds, dom, cfg)
	res := matcher.New(matcher.DefaultConfig()).Match(ds)
	u := unify.Build(ds, res)
	probe := func(_ context.Context, ifcID, attrID, value string) (string, error) {
		return pool.Source(ifcID).Probe(attrID, value), nil
	}
	return New(u, ds, probe), len(ds.Interfaces)
}

func TestAttributesListed(t *testing.T) {
	tr, _ := setup(t)
	attrs := tr.Attributes()
	if len(attrs) < 5 {
		t.Fatalf("unified attributes = %v", attrs)
	}
	joined := strings.Join(attrs, "|")
	if !strings.Contains(joined, "Class") && !strings.Contains(joined, "Cabin") {
		t.Errorf("no cabin-class attribute among %v", attrs)
	}
}

func TestQueryFansOut(t *testing.T) {
	tr, nIfcs := setup(t)
	// The origin-city cluster covers most interfaces; querying it with a
	// popular city must reach many sources and succeed on several.
	var label string
	for _, l := range tr.Attributes() {
		ll := strings.ToLower(l)
		if strings.Contains(ll, "from") || strings.Contains(ll, "city") || ll == "to" {
			label = l
			break
		}
	}
	if label == "" {
		t.Skip("no city-like unified attribute")
	}
	results, err := tr.Query(context.Background(), label, "Boston")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < nIfcs/3 {
		t.Errorf("query reached only %d of %d sources", len(results), nIfcs)
	}
	ok, total := Coverage(results)
	if ok == 0 {
		t.Errorf("no source answered Boston successfully (of %d)", total)
	}
}

func TestQueryRejectsBadValue(t *testing.T) {
	tr, _ := setup(t)
	var label string
	for _, l := range tr.Attributes() {
		if strings.Contains(strings.ToLower(l), "from") {
			label = l
			break
		}
	}
	if label == "" {
		t.Skip("no from attribute")
	}
	results, err := tr.Query(context.Background(), label, "NotACityAnywhere")
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := Coverage(results)
	if ok != 0 {
		t.Errorf("%d sources accepted a nonsense value", ok)
	}
}

func TestQueryUnknownAttribute(t *testing.T) {
	tr, _ := setup(t)
	if _, err := tr.Query(context.Background(), "No Such Attribute", "x"); err == nil {
		t.Error("want error for unknown unified attribute")
	}
}

func TestCoverageEmpty(t *testing.T) {
	ok, total := Coverage(nil)
	if ok != 0 || total != 0 {
		t.Errorf("coverage = %d/%d", ok, total)
	}
}

func TestQueryListsUnavailableSources(t *testing.T) {
	tr, _ := setup(t)
	label := tr.Attributes()[0]
	down := errors.New("source down")
	tr.probe = func(context.Context, string, string, string) (string, error) { return "", down }
	results, err := tr.Query(context.Background(), label, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("failed probes dropped from the fan-out")
	}
	for _, r := range results {
		if r.OK || !errors.Is(r.Err, down) {
			t.Errorf("%s: OK=%v Err=%v, want unavailable", r.InterfaceID, r.OK, r.Err)
		}
	}
	if ok, total := Coverage(results); ok != 0 || total != len(results) {
		t.Errorf("Coverage = %d of %d, want 0 of %d", ok, total, len(results))
	}
}
