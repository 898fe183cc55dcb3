package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"webiq/internal/htmlform"
	"webiq/internal/obs"
)

// refMergesAmong is the per-attribute ledger walk explain used to make:
// every decision of the ledger, filtered to the matcher merges within
// the member set.
func refMergesAmong(ledger *obs.Ledger, members []string) []obs.Decision {
	if len(members) < 2 {
		return nil
	}
	in := map[string]bool{}
	for _, m := range members {
		in[m] = true
	}
	var out []obs.Decision
	for _, d := range ledger.Decisions() {
		if d.Component == "matcher" && d.Verdict == "merge" && in[d.AttrID] && in[d.OtherID] {
			out = append(out, d)
		}
	}
	return out
}

// replayLedger records a domain's stored decisions into a fresh ledger,
// as boot does.
func replayLedger(decisions []obs.Decision) *obs.Ledger {
	l := obs.NewLedger(nil)
	for _, d := range decisions {
		l.Record(d)
	}
	return l
}

// TestMergesAmongMatchesLedgerFilter pins the one-walk merge lists: for
// every domain and unified attribute, filtering the domain's merges
// equals filtering the whole ledger per attribute.
func TestMergesAmongMatchesLedgerFilter(t *testing.T) {
	w := testWorld(t)
	total := 0
	for _, dw := range w.Domains {
		ledger := replayLedger(dw.Decisions)
		merges := matcherMerges(ledger)
		for _, ua := range dw.Unified.Attributes {
			got, want := mergesAmong(merges, ua.Members), refMergesAmong(ledger, ua.Members)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: merges %v, want %v", dw.Domain, ua.Label, got, want)
			}
			total += len(got)
		}
	}
	if total == 0 {
		t.Fatal("no unified attribute has a merge; the comparison is vacuous")
	}
}

// writeCounter counts the Write calls a handler makes.
type writeCounter struct {
	http.ResponseWriter
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseWriter.Write(p)
}

// TestBootRendersExplainAndView checks the pages boot stores: for every
// domain of a snapshot-booted server, /unified/{d}/explain serves
// explainUnified over the world's decisions in writeJSON's encoding and
// /unified/{d} serves the rendered unified interface, each in one
// Write; and webiq_decisions_total still counts every stored decision.
func TestBootRendersExplainAndView(t *testing.T) {
	snap, _ := snapshotPair(t)
	w := testWorld(t)
	counts := map[string]int{}
	for _, dw := range w.Domains {
		var want bytes.Buffer
		ledger := replayLedger(dw.Decisions)
		if err := encodeJSON(&want, explainUnified(dw.Domain, dw.Unified, w.Dataset(dw.Domain), ledger)); err != nil {
			t.Fatal(err)
		}
		for _, page := range []struct{ path, ctype, body string }{
			{"/unified/" + dw.Domain + "/explain", "application/json", want.String()},
			{"/unified/" + dw.Domain, "text/html; charset=utf-8", htmlform.Render(dw.Unified.AsInterface("unified-" + dw.Domain))},
		} {
			rec := httptest.NewRecorder()
			wc := &writeCounter{ResponseWriter: rec}
			snap.ServeHTTP(wc, httptest.NewRequest("GET", page.path, nil))
			if rec.Code != 200 || rec.Body.String() != page.body {
				t.Errorf("%s: status %d, body differs from the boot render (%d bytes, want %d)",
					page.path, rec.Code, rec.Body.Len(), len(page.body))
			}
			if ct := rec.Header().Get("Content-Type"); ct != page.ctype {
				t.Errorf("%s: Content-Type %q, want %q", page.path, ct, page.ctype)
			}
			if wc.writes != 1 {
				t.Errorf("%s: %d writes, want 1", page.path, wc.writes)
			}
		}
		for _, d := range dw.Decisions {
			counts[`webiq_decisions_total{component="`+d.Component+`",verdict="`+d.Verdict+`"}`]++
		}
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
