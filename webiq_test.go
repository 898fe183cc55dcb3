package webiq_test

import (
	"sync"
	"testing"

	"webiq"
)

var (
	sysOnce sync.Once
	sys     *webiq.System
)

func sharedSystem(t *testing.T) *webiq.System {
	t.Helper()
	sysOnce.Do(func() { sys = webiq.NewSystem(webiq.Options{}) })
	return sys
}

func TestSystemDomainKeys(t *testing.T) {
	s := sharedSystem(t)
	keys := s.DomainKeys()
	if len(keys) != 5 {
		t.Fatalf("domains = %v", keys)
	}
	seen := map[string]bool{}
	for _, k := range keys {
		seen[k] = true
	}
	for _, want := range []string{"airfare", "auto", "book", "job", "realestate"} {
		if !seen[want] {
			t.Errorf("missing domain %q", want)
		}
	}
}

func TestSystemGenerateDataset(t *testing.T) {
	s := sharedSystem(t)
	ds := s.GenerateDataset("auto")
	if len(ds.Interfaces) != 20 {
		t.Errorf("interfaces = %d", len(ds.Interfaces))
	}
	if len(ds.GoldPairs()) == 0 {
		t.Error("no gold pairs")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run skipped with -short")
	}
	s := sharedSystem(t)
	ds := s.GenerateDataset("job")
	_, before := s.Match(ds, 0)
	rep := s.Acquire(ds)
	if rep.SuccessRate() <= 0 {
		t.Fatal("acquisition achieved nothing")
	}
	_, after := s.Match(ds, 0)
	if after.F1 < before.F1 {
		t.Errorf("matching degraded: %.3f -> %.3f", before.F1, after.F1)
	}
	if after.F1-before.F1 < 0.02 {
		t.Errorf("acquisition gain too small: %.3f -> %.3f", before.F1, after.F1)
	}
	q, vt := s.SearchQueries()
	if q == 0 || vt <= 0 {
		t.Error("no query accounting recorded")
	}
}

// oneAuthorDataset is a hand-built book dataset of one interface with
// one instance-less attribute.
func oneAuthorDataset() *webiq.Dataset {
	return &webiq.Dataset{
		Domain: "book", EntityName: "book", DomainKeyword: "book",
		Interfaces: []*webiq.Interface{
			{ID: "x", Domain: "book", Attributes: []*webiq.Attribute{
				{ID: "x/a", InterfaceID: "x", Label: "Author", ConceptID: "book.author"},
			}},
		},
	}
}

func TestSystemAcquireHandBuiltDataset(t *testing.T) {
	s := sharedSystem(t)
	rep := s.Acquire(oneAuthorDataset())
	if len(rep.Outcomes) != 1 {
		t.Fatalf("outcomes = %d", len(rep.Outcomes))
	}
}

// TestSystemAcquireProbesItsOwnSources: acquiring a hand-built dataset
// first must not leave its Deep-Web sources behind for a later dataset
// of the same domain — a generated book dataset makes the same Attr-Deep
// probes as on a fresh System.
func TestSystemAcquireProbesItsOwnSources(t *testing.T) {
	fresh := webiq.NewSystem(webiq.Options{})
	want := fresh.Acquire(fresh.GenerateDataset("book")).AttrDeepQueries
	if want == 0 {
		t.Fatal("a fresh System made no Attr-Deep probes for book")
	}
	s := webiq.NewSystem(webiq.Options{})
	s.Acquire(oneAuthorDataset())
	if got := s.Acquire(s.GenerateDataset("book")).AttrDeepQueries; got != want {
		t.Errorf("after a hand-built dataset: %d Attr-Deep probes, want %d as on a fresh System", got, want)
	}
}

func TestSystemUnknownDomainPanics(t *testing.T) {
	s := sharedSystem(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown domain")
		}
	}()
	s.GenerateDataset("nope")
}

func TestOptionsDefaults(t *testing.T) {
	s := webiq.NewSystem(webiq.Options{Interfaces: 2})
	ds := s.GenerateDataset("book")
	if len(ds.Interfaces) != 2 {
		t.Errorf("interfaces = %d, want 2", len(ds.Interfaces))
	}
	if s.CorpusSize() == 0 {
		t.Error("empty corpus")
	}
}

func TestMovieExtensionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("extension end-to-end skipped with -short")
	}
	s := webiq.NewSystem(webiq.Options{IncludeExtensions: true})
	found := false
	for _, k := range s.DomainKeys() {
		if k == "movie" {
			found = true
		}
	}
	if !found {
		t.Fatal("movie domain not registered")
	}
	ds := s.GenerateDataset("movie")
	_, before := s.Match(ds, 0)
	rep := s.Acquire(ds)
	_, after := s.Match(ds, 0)
	if rep.SuccessRate() < 40 {
		t.Errorf("movie acquisition success = %.1f%%", rep.SuccessRate())
	}
	if after.F1 < before.F1 {
		t.Errorf("movie matching degraded: %.3f -> %.3f", before.F1, after.F1)
	}
	if after.F1 < 0.9 {
		t.Errorf("movie enriched F1 = %.3f, want >= .9", after.F1)
	}
}

func TestSystemLearnThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold learning reruns matching; skipped with -short")
	}
	s := sharedSystem(t)
	ds := s.GenerateDataset("auto")
	tau, asked := s.LearnThreshold(ds, 20)
	if asked > 20 {
		t.Errorf("asked %d > budget", asked)
	}
	if tau < 0 || tau > 1 {
		t.Errorf("learned tau = %v", tau)
	}
}
