package obs

import (
	"context"
	"sync"
	"testing"
)

func TestStartSpanLinkage(t *testing.T) {
	tr := NewTracer(nil)
	ctx, root := tr.StartSpan(context.Background(), "root")
	if root == nil || root.TraceID() == "" || root.SpanID() == "" {
		t.Fatal("root span missing trace identity")
	}
	traceID, rootSpanID := root.TraceID(), root.SpanID()
	if TraceIDFrom(ctx) != traceID {
		t.Errorf("TraceIDFrom = %q, want %q", TraceIDFrom(ctx), traceID)
	}
	if SpanFrom(ctx) != root {
		t.Error("SpanFrom did not return the active span")
	}

	childCtx, child := tr.StartSpan(ctx, "child")
	if child.TraceID() != traceID {
		t.Errorf("child trace = %q, want %q", child.TraceID(), traceID)
	}
	childSpanID := child.SpanID()
	_, grand := tr.StartSpan(childCtx, "grand")
	grand.End()
	child.End()

	// Contexts capture immutable identity: deriving a child from
	// childCtx after child has Ended (and been pooled) must still link
	// to child's span ID.
	_, late := tr.StartSpan(childCtx, "late")
	late.End()
	root.End()

	recs := tr.TraceRecords(traceID)
	if len(recs) != 4 {
		t.Fatalf("trace records = %d, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		if r.TraceID != traceID {
			t.Errorf("record %q trace = %q, want %q", r.Name, r.TraceID, traceID)
		}
		byName[r.Name] = r
	}
	if byName["child"].ParentID != rootSpanID {
		t.Errorf("child parent = %q, want %q", byName["child"].ParentID, rootSpanID)
	}
	if byName["grand"].ParentID != childSpanID {
		t.Errorf("grand parent = %q, want %q", byName["grand"].ParentID, childSpanID)
	}
	if byName["late"].ParentID != childSpanID {
		t.Errorf("late parent = %q, want %q (ended-span context reused)", byName["late"].ParentID, childSpanID)
	}

	tree := tr.Tree(traceID)
	if len(tree) != 1 || tree[0].Name != "root" {
		t.Fatalf("tree roots = %+v, want single root", tree)
	}
	if len(tree[0].Children) != 1 || tree[0].Children[0].Name != "child" {
		t.Fatalf("root children = %+v, want [child]", tree[0].Children)
	}
	kid := tree[0].Children[0]
	if len(kid.Children) != 2 || kid.Children[0].Name != "grand" || kid.Children[1].Name != "late" {
		t.Fatalf("child children = %+v, want [grand late] in start order", kid.Children)
	}
}

// TestStartSpanConcurrentLinkage pins the context-propagation paths
// under -race: many goroutines deriving child and grandchild spans from
// one shared root context must produce a consistent tree with unique
// span IDs.
func TestStartSpanConcurrentLinkage(t *testing.T) {
	tr := NewTracer(nil)
	ctx, root := tr.StartSpan(context.Background(), "root")
	traceID, rootSpanID := root.TraceID(), root.SpanID()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				childCtx, child := tr.StartSpan(ctx, "child")
				_, leaf := tr.StartSpan(childCtx, "leaf")
				leaf.End()
				child.End()
			}
		}()
	}
	wg.Wait()
	root.End()

	recs := tr.TraceRecords(traceID)
	if want := 8*50*2 + 1; len(recs) != want {
		t.Fatalf("trace records = %d, want %d", len(recs), want)
	}
	parents := make(map[string]string, len(recs)) // spanID -> parentID
	for _, r := range recs {
		if r.TraceID != traceID {
			t.Fatalf("record %q in trace %q, want %q", r.Name, r.TraceID, traceID)
		}
		if _, dup := parents[r.SpanID]; dup {
			t.Fatalf("duplicate span ID %q", r.SpanID)
		}
		parents[r.SpanID] = r.ParentID
	}
	for _, r := range recs {
		switch r.Name {
		case "child":
			if r.ParentID != rootSpanID {
				t.Fatalf("child parent = %q, want root %q", r.ParentID, rootSpanID)
			}
		case "leaf":
			if pp, ok := parents[r.ParentID]; !ok || pp != rootSpanID {
				t.Fatalf("leaf parent %q is not a child of the root", r.ParentID)
			}
		}
	}
}

func TestStartSpanNilSafety(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	gotCtx, sp := tr.StartSpan(ctx, "x")
	if sp != nil {
		t.Error("nil tracer returned a span")
	}
	if gotCtx != ctx {
		t.Error("nil tracer changed the context")
	}
	if tr.StartRoot("x") != nil || tr.StartChild(nil, "x") != nil {
		t.Error("nil tracer minted spans")
	}
	if WithSpan(ctx, nil) != ctx {
		t.Error("WithSpan(nil span) changed the context")
	}
	if TraceIDFrom(ctx) != "" || SpanFrom(ctx) != nil {
		t.Error("span identity on a bare context")
	}
	var nilCtx context.Context
	if TraceIDFrom(nilCtx) != "" || SpanFrom(nilCtx) != nil {
		t.Error("span identity on a nil context")
	}
}

func TestTraceRetentionFIFO(t *testing.T) {
	tr := NewTracer(nil)
	tr.SetTraceRetention(2)
	var ids []string
	for i := 0; i < 3; i++ {
		sp := tr.StartRoot("r")
		ids = append(ids, sp.TraceID())
		sp.End()
	}
	if tr.TraceRecords(ids[0]) != nil || tr.Tree(ids[0]) != nil {
		t.Error("oldest trace not evicted")
	}
	if tr.TraceRecords(ids[1]) == nil || tr.TraceRecords(ids[2]) == nil {
		t.Error("recent traces evicted")
	}
	if recs := tr.Records(); len(recs) != 2 || recs[0].TraceID != ids[1] || recs[1].TraceID != ids[2] {
		t.Errorf("Records = %+v, want the two retained traces, oldest first", recs)
	}

	// Retention 0 disables the per-trace store entirely.
	tr2 := NewTracer(nil)
	tr2.SetTraceRetention(0)
	sp := tr2.StartRoot("r")
	id := sp.TraceID()
	sp.End()
	if tr2.TraceRecords(id) != nil {
		t.Error("retention 0 still stored the trace")
	}
}
