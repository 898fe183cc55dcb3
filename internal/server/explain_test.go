package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"webiq/internal/htmlform"
	"webiq/internal/unify"
)

// writeCounter counts the Write calls a handler makes.
type writeCounter struct {
	http.ResponseWriter
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseWriter.Write(p)
}

// TestBootRendersExplainAndView checks the pages boot installs: for
// every domain of a snapshot-booted server, /unified/{d}/explain serves
// unify.RenderExplain over the world's decoded decisions and
// /unified/{d} serves the rendered unified interface, each in one
// Write; and webiq_decisions_total counts every stored decision.
func TestBootRendersExplainAndView(t *testing.T) {
	snap, _ := snapshotPair(t)
	w := testWorld(t)
	counts := map[string]int{}
	for _, dw := range w.Domains {
		decisions, err := w.Decisions(dw.Domain)
		if err != nil {
			t.Fatal(err)
		}
		want, err := unify.RenderExplain(dw.Domain, dw.Unified, w.Dataset(dw.Domain), decisions)
		if err != nil {
			t.Fatal(err)
		}
		for _, page := range []struct{ path, ctype, body string }{
			{"/unified/" + dw.Domain + "/explain", "application/json", string(want)},
			{"/unified/" + dw.Domain, "text/html; charset=utf-8", htmlform.Render(dw.Unified.AsInterface("unified-" + dw.Domain))},
		} {
			rec := httptest.NewRecorder()
			wc := &writeCounter{ResponseWriter: rec}
			snap.ServeHTTP(wc, httptest.NewRequest("GET", page.path, nil))
			if rec.Code != 200 || rec.Body.String() != page.body {
				t.Errorf("%s: status %d, body differs from the render over the decoded decisions (%d bytes, want %d)",
					page.path, rec.Code, rec.Body.Len(), len(page.body))
			}
			if ct := rec.Header().Get("Content-Type"); ct != page.ctype {
				t.Errorf("%s: Content-Type %q, want %q", page.path, ct, page.ctype)
			}
			if wc.writes != 1 {
				t.Errorf("%s: %d writes, want 1", page.path, wc.writes)
			}
		}
		for _, d := range decisions {
			counts[`webiq_decisions_total{component="`+d.Component+`",verdict="`+d.Verdict+`"}`]++
		}
	}
	if len(counts) == 0 {
		t.Fatal("the world decoded no decision; the comparison is vacuous")
	}
	_, metrics := get(t, snap, "/metrics")
	got := grepMetric(metrics, "webiq_decisions_total{")
	if len(got) != len(counts) {
		t.Errorf("%d decision series on /metrics, want %d", len(got), len(counts))
	}
	for k, n := range counts {
		if got[k] != strconv.Itoa(n) {
			t.Errorf("%s = %q, want %d", k, got[k], n)
		}
	}
}

// BenchmarkServerRoutes measures the four routes of the serving mix —
// a source probe, a unified fan-out, the unified view and its explain —
// through a snapshot-booted server, cycling over the domains.
func BenchmarkServerRoutes(b *testing.B) {
	w := testWorld(b)
	s, err := NewFromSnapshot(w)
	if err != nil {
		b.Fatal(err)
	}
	paths := map[string][]string{}
	for _, dw := range w.Domains {
		d := dw.Domain
		paths["view"] = append(paths["view"], "/unified/"+d)
		paths["explain"] = append(paths["explain"], "/unified/"+d+"/explain")
	probe:
		for _, ifc := range w.Dataset(d).Interfaces {
			for j, a := range ifc.Attributes {
				if vals := a.AllInstances(); len(vals) > 0 {
					paths["probe"] = append(paths["probe"], "/source/"+ifc.ID+"/search?f"+strconv.Itoa(j)+"="+url.QueryEscape(vals[0]))
					break probe
				}
			}
		}
		for _, ua := range dw.Unified.Attributes {
			if len(ua.Instances) > 0 {
				paths["fanout"] = append(paths["fanout"], "/unified/"+d+"/search?attr="+url.QueryEscape(ua.Label)+"&value="+url.QueryEscape(ua.Instances[0]))
				break
			}
		}
	}
	for _, route := range []string{"probe", "fanout", "view", "explain"} {
		b.Run(route, func(b *testing.B) {
			reqs := make([]*http.Request, len(paths[route]))
			for i, p := range paths[route] {
				reqs[i] = httptest.NewRequest("GET", p, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, reqs[i%len(reqs)])
				if rec.Code != 200 {
					b.Fatalf("%s: status %d", reqs[i%len(reqs)].URL, rec.Code)
				}
			}
		})
	}
}
