package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHealthz(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/healthz")
	if code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: code=%d body=%q", code, body)
	}
}

// TestReadyzStates pins readiness: every domain is installed at boot,
// so the server and each domain answer ready from the first request,
// and an unknown domain is 404. Draining is covered by
// TestServerDrainFlipsReadyz.
func TestReadyzStates(t *testing.T) {
	s := testServer(t)
	if code, _ := get(t, s, "/readyz?domain=nope"); code != 404 {
		t.Errorf("unknown domain: code=%d, want 404", code)
	}
	code, body := get(t, s, "/readyz?domain=auto")
	if code != 200 {
		t.Errorf("domain readiness: code=%d, want 200", code)
	}
	var info readyzInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Ready || len(info.Domains) != 1 || !info.Domains["auto"] {
		t.Errorf("domain readiness = %+v, want ready with only auto", info)
	}
	code, body = get(t, s, "/readyz")
	if code != 200 {
		t.Errorf("overall readiness: code=%d, want 200", code)
	}
	info = readyzInfo{}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if !info.Ready || info.Draining || len(info.Domains) != 5 {
		t.Errorf("overall readiness = %+v, want 5 domains, ready", info)
	}
	for d, ready := range info.Domains {
		if !ready {
			t.Errorf("domain %s not ready at boot", d)
		}
	}
}

func TestTraceUnknown(t *testing.T) {
	s := testServer(t)
	if code, _ := get(t, s, "/trace/deadbeef"); code != 404 {
		t.Errorf("unknown trace: code=%d, want 404", code)
	}
	if code, _ := get(t, s, "/trace/"); code != 404 {
		t.Errorf("empty trace id: code=%d, want 404", code)
	}
}

// TestExplainProvenance is the acceptance criterion end to end: every
// instance of the unified interface must be attributable to a component
// with numeric evidence, and the request's trace must resolve.
func TestExplainProvenance(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest("GET", "/unified/book/explain", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status = %d: %.300s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID response header")
	}
	var p ExplainPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.Attributes) == 0 || p.Instances == 0 {
		t.Fatalf("empty provenance payload: %d attributes, %d instances", len(p.Attributes), p.Instances)
	}
	if p.Attributed != p.Instances {
		for _, ea := range p.Attributes {
			for _, inst := range ea.Instances {
				if inst.Verdict == "unattributed" {
					t.Errorf("unattributed: %q (attr %q, from %s)", inst.Value, ea.Label, inst.SourceAttr)
				}
			}
		}
		t.Fatalf("provenance incomplete: %d of %d instances attributed", p.Attributed, p.Instances)
	}
	for _, ea := range p.Attributes {
		for _, inst := range ea.Instances {
			if inst.Component == "" || inst.Verdict == "" || inst.SourceAttr == "" {
				t.Fatalf("instance missing provenance fields: %+v", inst)
			}
		}
	}

	if code, _ := get(t, s, "/trace/"+traceID); code != 200 {
		t.Errorf("GET /trace/%s: code=%d", traceID, code)
	}
}

// TestTraceRetentionBounds pins the WithTraceRetention option: the
// per-trace store keeps exactly the n most recent traces, older ones
// evict FIFO, and n <= 0 disables /trace/{id} resolution entirely.
func TestTraceRetentionBounds(t *testing.T) {
	s := newTestServer(t, WithTraceRetention(2))
	var ids []string
	for i := 0; i < 4; i++ {
		req := httptest.NewRequest("GET", "/sources", nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		id := rec.Header().Get("X-Trace-ID")
		if id == "" {
			t.Fatal("request minted no trace ID")
		}
		ids = append(ids, id)
	}
	// The store holds the 2 most recent traces. Check the newest first:
	// every /trace lookup mints a trace of its own, so each check evicts
	// one more of the originals.
	if code, _ := get(t, s, "/trace/"+ids[3]); code != 200 {
		t.Errorf("most recent trace %s: code=%d, want 200", ids[3], code)
	}
	for _, id := range ids[:2] {
		if code, _ := get(t, s, "/trace/"+id); code != 404 {
			t.Errorf("evicted trace %s: code=%d, want 404", id, code)
		}
	}

	// The default capacity (DefTraceRetention=512) keeps all four plus
	// the lookup traces around.
	def := testServer(t)
	var defIDs []string
	for i := 0; i < 4; i++ {
		req := httptest.NewRequest("GET", "/sources", nil)
		rec := httptest.NewRecorder()
		def.ServeHTTP(rec, req)
		defIDs = append(defIDs, rec.Header().Get("X-Trace-ID"))
	}
	for _, id := range defIDs {
		if code, _ := get(t, def, "/trace/"+id); code != 200 {
			t.Errorf("default retention lost trace %s: code=%d, want 200", id, code)
		}
	}

	off := newTestServer(t, WithTraceRetention(0))
	req := httptest.NewRequest("GET", "/sources", nil)
	rec := httptest.NewRecorder()
	off.ServeHTTP(rec, req)
	id := rec.Header().Get("X-Trace-ID")
	if id == "" {
		t.Fatal("disabled retention still mints trace IDs for headers")
	}
	if code, _ := get(t, off, "/trace/"+id); code != 404 {
		t.Errorf("retention disabled: /trace/%s code=%d, want 404", id, code)
	}
}

// TestServerTracerBounded pins the tracer's memory bound: every request
// mints a root span, and the tracer retains only the spans of the
// -trace-retention most recent traces, however many requests it serves.
func TestServerTracerBounded(t *testing.T) {
	s := newTestServer(t, WithTraceRetention(8))
	var ids []string
	for i := 0; i < 300; i++ {
		path := "/healthz"
		if i%3 == 0 {
			path = "/sources"
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		ids = append(ids, rec.Header().Get("X-Trace-ID"))
	}
	recs := s.Tracer().Records()
	traces := map[string]bool{}
	for _, r := range recs {
		traces[r.TraceID] = true
	}
	if len(traces) > 8 || len(recs) == 0 {
		t.Fatalf("tracer holds %d spans of %d traces after %d requests, want spans of at most 8 traces",
			len(recs), len(traces), len(ids))
	}
	// Newest first: each /trace lookup mints a trace of its own.
	if code, _ := get(t, s, "/trace/"+ids[len(ids)-1]); code != 200 {
		t.Errorf("newest trace: code=%d, want 200", code)
	}
	if code, _ := get(t, s, "/trace/"+ids[0]); code != 404 {
		t.Errorf("oldest trace: code=%d, want 404", code)
	}
}
