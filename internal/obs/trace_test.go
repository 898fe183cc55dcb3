package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerNDJSON(t *testing.T) {
	var sb strings.Builder
	tr := NewTracer(&sb)
	root := tr.StartRoot("acquire-all")
	sp := tr.StartChild(root, "surface").Label("attr", "book/if00/a1").Label("label", "Author")
	sp.AddVirtual(250 * time.Millisecond)
	sp.AddQueries(3)
	sp.End()
	root.End()

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2:\n%s", len(lines), sb.String())
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if rec.Name != "surface" || rec.VirtualNS != int64(250*time.Millisecond) || rec.Queries != 3 ||
		rec.TraceID == "" || rec.ParentID == "" {
		t.Errorf("span record = %+v", rec)
	}
	if rec.Labels["label"] != "Author" {
		t.Errorf("labels = %v", rec.Labels)
	}
	if rec.WallNS < 0 {
		t.Errorf("wall = %d", rec.WallNS)
	}
	var rootRec SpanRecord
	if err := json.Unmarshal([]byte(lines[1]), &rootRec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if rootRec.Name != "acquire-all" || rootRec.ParentID != "" || rootRec.SpanID != rec.ParentID || rootRec.TraceID != rec.TraceID {
		t.Errorf("root record = %+v", rootRec)
	}
}

func TestTracerConcurrent(t *testing.T) {
	// The writer is not concurrency-safe; the tracer must serialize
	// emission internally for the NDJSON lines to stay whole.
	var sb strings.Builder
	tr := NewTracer(&sb)
	root := tr.StartRoot("run")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartChild(root, "work")
				sp.AddVirtual(time.Millisecond)
				sp.AddQueries(1)
				sp.End()
			}
		}(g)
	}
	// Concurrent reads while spans finish.
	for i := 0; i < 20; i++ {
		tr.TotalsByName()
		tr.Records()
	}
	wg.Wait()
	root.End()

	recs := tr.Records()
	if len(recs) != 1601 {
		t.Fatalf("records = %d, want 1600 spans plus the root", len(recs))
	}
	// Every NDJSON line must be valid JSON (no interleaving).
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		var rec SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v: %q", n, err, sc.Text())
		}
		n++
	}
	if n != 1601 {
		t.Fatalf("ndjson lines = %d, want 1601", n)
	}
	tot := tr.TotalsByName()
	if len(tot) != 2 || tot[0].Name != "run" || tot[0].Spans != 1 || tot[1].Name != "work" {
		t.Fatalf("totals = %+v", tot)
	}
	if tot[1].Spans != 1600 || tot[1].Queries != 1600 || tot[1].Virtual != 1600*time.Millisecond {
		t.Errorf("totals = %+v", tot[1])
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("x")
	sp.Label("a", "b")
	sp.AddVirtual(time.Second)
	sp.AddQueries(1)
	sp.End()
	tr.StartChild(sp, "y").End()
	if tr.Records() != nil || tr.TotalsByName() != nil {
		t.Fatal("nil tracer should return nil")
	}
}

func TestTracerCollectOnly(t *testing.T) {
	tr := NewTracer(nil) // no writer: collect in memory only
	tr.StartRoot("a").End()
	if len(tr.Records()) != 1 {
		t.Fatal("record not collected")
	}
}
