package eval

import (
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/kb"
)

func buildTestSet(t *testing.T) *Set {
	t.Helper()
	dom := kb.DomainByKey("airfare")
	if dom == nil {
		t.Fatal("airfare domain missing")
	}
	cfg := dataset.DefaultConfig()
	cfg.Seed = 7
	ds := dataset.Generate(dom, cfg)
	return BuildSet(ds, dom, false)
}

func TestBuildSetGold(t *testing.T) {
	set := buildTestSet(t)
	if set.ID != "airfare" || set.Domain != "airfare" {
		t.Fatalf("set identity = %q/%q, want airfare", set.ID, set.Domain)
	}
	if len(set.Attrs) == 0 {
		t.Fatal("no gold attributes")
	}
	if len(set.Clusters) == 0 || len(set.Pairs) == 0 {
		t.Fatalf("gold clusters/pairs empty: %d/%d", len(set.Clusters), len(set.Pairs))
	}
	if got, want := len(set.GoldPairSet()), len(set.Pairs); got != want {
		t.Fatalf("GoldPairSet size = %d, want %d", got, want)
	}
	var sawNumeric, sawVocab bool
	for i := range set.Attrs {
		g := &set.Attrs[i]
		if g.ConceptID == "" {
			t.Fatalf("attr %s has no concept ID", g.AttrID)
		}
		if g.Numeric != nil {
			sawNumeric = true
			continue
		}
		sawVocab = true
		if len(g.Instances) == 0 {
			t.Fatalf("string attr %s has empty gold vocabulary", g.AttrID)
		}
		// Gold instances must be self-consistent under Correct.
		if !g.Correct(g.Instances[0]) {
			t.Fatalf("gold instance %q rejected by its own attr", g.Instances[0])
		}
	}
	if !sawNumeric || !sawVocab {
		t.Fatalf("want both numeric and vocabulary gold, got numeric=%v vocab=%v", sawNumeric, sawVocab)
	}
}

func TestNumericGoldContains(t *testing.T) {
	ng := &NumericGold{Min: 100, Max: 1000, Step: 50, Monetary: true, Commas: true}
	for _, ok := range []string{"100", "$150", "1,000", "$1,000", " 500 "} {
		if !ng.Contains(ok) {
			t.Errorf("Contains(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"99", "1050", "125", "abc", "", "$"} {
		if ng.Contains(bad) {
			t.Errorf("Contains(%q) = true, want false", bad)
		}
	}
	dec := &NumericGold{Min: 995, Max: 9995, Step: 100, Decimals: 2}
	// Decimals=2 means rendered values carry two decimal places and the
	// bounds are in hundredths: 9.95 -> 995.
	if !dec.Contains("9.95") || !dec.Contains("10.95") {
		t.Error("decimal values inside the domain rejected")
	}
	if dec.Contains("9.90") {
		t.Error("off-step decimal accepted")
	}
}
