package webiq

import (
	"strings"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
)

func TestTracerReceivesEvents(t *testing.T) {
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey("book")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	cfg := DefaultConfig()
	acq := NewPipeline(eng, pool, cfg, AllComponents())
	var ct CollectTracer
	acq.SetTracer(&ct)
	acq.AcquireAll(ds)

	events := ct.Events()
	if len(events) == 0 {
		t.Fatal("no events traced")
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.AttrID == "" || e.Label == "" {
			t.Errorf("event missing identity: %+v", e)
		}
	}
	if kinds["surface"] == 0 {
		t.Error("no surface events")
	}
	if kinds["borrow-surface"] == 0 {
		t.Error("no borrow-surface events")
	}
}

func TestTracerNilSafe(t *testing.T) {
	a := &Acquirer{}
	a.trace(Event{Kind: "x"}) // must not panic with no tracer
}

func TestLogTracerFormat(t *testing.T) {
	var sb strings.Builder
	lt := NewLogTracer(&sb)
	lt.Trace(Event{Kind: "surface", AttrID: "d/if0/a1", Label: "Author", Count: 12})
	lt.Trace(Event{Kind: "syntax-skip", AttrID: "d/if0/a2", Label: "From", Detail: "no NP"})
	out := sb.String()
	if !strings.Contains(out, "surface") || !strings.Contains(out, "Author") ||
		!strings.Contains(out, "n=12") || !strings.Contains(out, "no NP") {
		t.Errorf("log output:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Errorf("want 2 lines:\n%s", out)
	}
}

func TestTracerWithParallelism(t *testing.T) {
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey("job")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	acq := NewPipeline(eng, pool, cfg, AllComponents())
	var ct CollectTracer
	acq.SetTracer(&ct)
	acq.AcquireAll(ds)
	if len(ct.Events()) == 0 {
		t.Error("no events under parallel acquisition")
	}
}
