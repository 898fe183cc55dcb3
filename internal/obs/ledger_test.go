package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestLedgerNDJSONRoundTrip(t *testing.T) {
	var sb strings.Builder
	l := NewLedger(&sb)
	in := []Decision{
		{Component: "surface", Verdict: "accept", AttrID: "book/if00/a1", Label: "Author",
			Value: "Mark Twain", Score: 0.82, Threshold: 0.3, Detail: "PMI validation"},
		{Component: "outlier", Verdict: "removed", AttrID: "book/if00/a1",
			Value: "zzz", Score: 3.1, Threshold: 2.0},
		{Component: "attr-surface", Verdict: "reject", AttrID: "book/if01/a2",
			Value: "Boston", Score: 0.12, Threshold: 0.5},
		{Component: "matcher", Verdict: "merge", AttrID: "a", OtherID: "b", TraceID: "t9",
			Score: 0.9, Threshold: 0.1, LabelSim: 1, DomSim: 0.75, MergeOrder: 1, Count: 2,
			Detail: `strongest pair "Author"~"Writer"`},
	}
	for _, d := range in {
		l.Record(d)
	}

	// Every NDJSON line must decode back to exactly the stored decision
	// (Seq stamped in emission order).
	var back []Decision
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d not JSON: %v: %q", len(back), err, sc.Text())
		}
		back = append(back, d)
	}
	want := l.Decisions()
	if len(want) != len(in) {
		t.Fatalf("decisions = %d, want %d", len(want), len(in))
	}
	if !reflect.DeepEqual(back, want) {
		t.Errorf("NDJSON round-trip mismatch:\ngot  %+v\nwant %+v", back, want)
	}
	for i, d := range want {
		if d.Seq != i {
			t.Errorf("decision %d has Seq %d", i, d.Seq)
		}
	}
}

func TestLedgerCounterAndIndexes(t *testing.T) {
	r := NewRegistry()
	l := NewLedger(nil)
	l.Instrument(r)
	l.Record(Decision{Component: "surface", Verdict: "accept", AttrID: "a1", TraceID: "t1"})
	l.Record(Decision{Component: "surface", Verdict: "accept", AttrID: "a2", TraceID: "t1"})
	l.Record(Decision{Component: "surface", Verdict: "reject", AttrID: "a1"})
	l.Record(Decision{Component: "matcher", Verdict: "merge", AttrID: "a1", OtherID: "a2", TraceID: "t2"})

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`webiq_decisions_total{component="surface",verdict="accept"} 2`,
		`webiq_decisions_total{component="surface",verdict="reject"} 1`,
		`webiq_decisions_total{component="matcher",verdict="merge"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	if l.Len() != 4 {
		t.Errorf("Len = %d, want 4", l.Len())
	}
	a1 := l.ByAttr("a1")
	if len(a1) != 3 || a1[0].Seq != 0 || a1[1].Seq != 2 || a1[2].Seq != 3 {
		t.Errorf("ByAttr(a1) = %+v, want seqs 0,2,3", a1)
	}
	if l.ByAttr("nope") != nil {
		t.Error("unknown index keys should return nil")
	}
}

func TestLedgerRecordCtx(t *testing.T) {
	tr := NewTracer(nil)
	ctx, sp := tr.StartSpan(context.Background(), "root")
	traceID, spanID := sp.TraceID(), sp.SpanID()
	l := NewLedger(nil)
	l.RecordCtx(ctx, Decision{Component: "surface", Verdict: "accept", AttrID: "a"})
	l.RecordCtx(context.Background(), Decision{Component: "surface", Verdict: "reject"})
	// An explicitly-set trace ID wins over the context's.
	l.RecordCtx(ctx, Decision{Component: "matcher", Verdict: "merge", TraceID: "explicit"})
	sp.End()

	ds := l.Decisions()
	if ds[0].TraceID != traceID || ds[0].SpanID != spanID {
		t.Errorf("decision 0 identity = %q/%q, want %q/%q", ds[0].TraceID, ds[0].SpanID, traceID, spanID)
	}
	if ds[1].TraceID != "" || ds[1].SpanID != "" {
		t.Errorf("decision 1 identity = %q/%q, want empty", ds[1].TraceID, ds[1].SpanID)
	}
	if ds[2].TraceID != "explicit" {
		t.Errorf("decision 2 trace = %q, want explicit", ds[2].TraceID)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Record(Decision{Component: "surface", Verdict: "accept"})
	l.RecordCtx(context.Background(), Decision{})
	l.Instrument(NewRegistry())
	if l.Len() != 0 || l.Decisions() != nil || l.ByAttr("x") != nil {
		t.Fatal("nil ledger must no-op")
	}
}
