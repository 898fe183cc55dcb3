package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"webiq/internal/obs"
	"webiq/internal/unify"
)

// TestStatsRuntimeBlock pins the /stats runtime block: it is present on
// every server (recorder or not) and its figures are within sane bounds.
func TestStatsRuntimeBlock(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	var info struct {
		Runtime obs.RuntimeSample `json:"runtime"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	rt := info.Runtime
	if rt.Goroutines < 1 || rt.Goroutines > 1_000_000 {
		t.Errorf("goroutines = %d", rt.Goroutines)
	}
	if rt.HeapInuseBytes == 0 || rt.HeapInuseBytes > 1<<40 {
		t.Errorf("heap_inuse_bytes = %d", rt.HeapInuseBytes)
	}
	if rt.GCPauseP99NS < 0 || rt.GCPauseP99NS > int64(time.Minute) {
		t.Errorf("gc_pause_p99_ns = %d", rt.GCPauseP99NS)
	}
	if rt.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d", rt.GOMAXPROCS)
	}
	if rt.TimeNS <= 0 {
		t.Errorf("time_ns = %d", rt.TimeNS)
	}
}

// TestFlightDisabled pins the off state: /debug/flight 404s with a
// JSON hint and no wide events exist anywhere.
func TestFlightDisabled(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/debug/flight")
	if code != 404 || !strings.Contains(body, "flight recorder disabled") {
		t.Fatalf("/debug/flight on plain server = %d %q", code, body)
	}
	if s.Flight() != nil {
		t.Error("plain server has a recorder")
	}
}

// TestFlightEndpoints exercises the full debug surface on a live
// recorder: status, manual snapshot, bundle list, bundle download —
// and checks wide events carry trace IDs resolvable via /trace/{id}.
func TestFlightEndpoints(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, WithFlightRecorder(obs.FlightOptions{
		Dir:                dir,
		Triggers:           obs.TriggerConfig{On5xx: true, Debounce: time.Hour},
		CPUProfileDuration: -1,
		SampleInterval:     -1,
	}))
	defer s.Close()

	// Traffic: one healthy page and one 404 (no trigger configured for
	// 4xx, so no automatic bundle).
	if code, _ := get(t, s, "/sources"); code != 200 {
		t.Fatalf("/sources = %d", code)
	}
	get(t, s, "/source/nope")

	code, body := get(t, s, "/debug/flight")
	if code != 200 {
		t.Fatalf("/debug/flight = %d %s", code, body)
	}
	var status struct {
		Enabled bool   `json:"enabled"`
		Events  uint64 `json:"events_recorded"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if !status.Enabled || status.Events < 2 {
		t.Fatalf("status = %+v, want enabled with >= 2 events", status)
	}

	// Every wide event must carry a resolvable trace ID.
	for _, ev := range s.Flight().EventsSince(0) {
		if ev.TraceID == "" {
			t.Fatalf("wide event without trace ID: %+v", ev)
		}
		if code, _ := get(t, s, "/trace/"+ev.TraceID); code != 200 {
			t.Errorf("trace %s of route %s not resolvable: %d", ev.TraceID, ev.Route, code)
		}
	}

	// Manual snapshot, then list + download.
	code, body = get(t, s, "/debug/flight/snapshot")
	if code != 200 {
		t.Fatalf("/debug/flight/snapshot = %d %s", code, body)
	}
	code, body = get(t, s, "/debug/flight/bundles")
	if code != 200 {
		t.Fatalf("/debug/flight/bundles = %d", code)
	}
	var bundles []obs.BundleInfo
	if err := json.Unmarshal([]byte(body), &bundles); err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("bundles = %+v, want exactly the manual snapshot", bundles)
	}
	code, body = get(t, s, "/debug/flight/bundle/"+bundles[0].Name)
	if code != 200 {
		t.Fatalf("bundle download = %d", code)
	}
	var b obs.Bundle
	if err := json.Unmarshal([]byte(body), &b); err != nil {
		t.Fatalf("downloaded bundle is not JSON: %v", err)
	}
	if b.Reason != "manual" || len(b.WideEvents) < 2 {
		t.Errorf("bundle reason=%q events=%d", b.Reason, len(b.WideEvents))
	}
	// Traversal attempts must not leave the bundle dir.
	if code, _ := get(t, s, "/debug/flight/bundle/..%2f..%2fetc%2fpasswd"); code == 200 {
		t.Error("path traversal served a file")
	}
}

// TestFlightShedWideEvents pins that a shed request still produces a
// wide event (with the shed reason, and no trace ID) and fires the shed
// trigger.
func TestFlightShedWideEvents(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	s := newTestServer(t,
		WithAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueued: 0}),
		WithFlightRecorder(obs.FlightOptions{
			Dir:                dir,
			Triggers:           obs.TriggerConfig{OnShed: true, Debounce: -1},
			CPUProfileDuration: -1,
			SampleInterval:     -1,
		}))
	defer s.Close()

	// Occupy the only slot with a request that blocks in the handler.
	s.handle("block", admitted, func(_ http.ResponseWriter, _ *http.Request) { <-block }, "/block")
	release := make(chan struct{})
	go func() {
		get(t, s, "/block")
		close(release)
	}()
	// Wait until the blocker holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inFlight, _, _, _, _ := s.adm.stats()
		if inFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	code, _ := get(t, s, "/sources")
	if code != 503 {
		t.Fatalf("expected shed 503, got %d", code)
	}
	close(block)
	<-release

	var shed *obs.WideEvent
	for _, ev := range s.Flight().EventsSince(0) {
		if ev.ShedReason != "" {
			ev := ev
			shed = &ev
		}
	}
	if shed == nil {
		t.Fatal("no wide event for the shed request")
	}
	if shed.Status != 503 || shed.ShedReason != "queue-full" || shed.Trigger != "shed" {
		t.Errorf("shed wide event = %+v", shed)
	}
	if shed.TraceID != "" {
		t.Errorf("shed event has a trace ID %q; sheds never reach the tracer", shed.TraceID)
	}

	// The shed trigger dumped a bundle whose events include the shed.
	waitBundle := time.Now().Add(5 * time.Second)
	for {
		infos, err := s.Flight().Bundles()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) > 0 {
			break
		}
		if time.Now().After(waitBundle) {
			t.Fatal("shed trigger never produced a bundle")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFlightEventsLog pins the triggered-event log that replaces the
// slow-request log: with slow=1ns every request fires the slow trigger,
// so each one leaves an NDJSON line in events.ndjson carrying its route,
// status, latency and the trace ID of its X-Trace-ID header, while the
// one-hour debounce lets at most one bundle through.
func TestFlightEventsLog(t *testing.T) {
	dir := t.TempDir()
	triggers, err := obs.ParseTriggers("slow=1ns,debounce=1h")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, WithFlightRecorder(obs.FlightOptions{
		Dir:                dir,
		Triggers:           triggers,
		CPUProfileDuration: -1,
		SampleInterval:     -1,
	}))
	type sent struct {
		route, traceID string
		status         int
	}
	var reqs []sent
	for _, r := range []struct{ route, path string }{
		{"sources", "/sources"},
		{"source", "/source/nope"},
		{"index", "/"},
		{"sources", "/sources"},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", r.path, nil))
		reqs = append(reqs, sent{r.route, rec.Header().Get("X-Trace-ID"), rec.Code})
	}
	// The first trigger's bundle dumps in the background; wait for it
	// before closing the log and reading the directory.
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos, err := s.Flight().Bundles()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow trigger never produced a bundle")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	if infos, _ := s.Flight().Bundles(); len(infos) != 1 {
		t.Errorf("%d bundles under a one-hour debounce, want 1", len(infos))
	}

	data, err := os.ReadFile(filepath.Join(dir, "events.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(reqs) {
		t.Fatalf("events.ndjson has %d lines for %d requests:\n%s", len(lines), len(reqs), data)
	}
	for i, line := range lines {
		var ev obs.WideEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i+1, err)
		}
		want := reqs[i]
		if ev.Route != want.route || ev.Status != want.status || ev.Seconds <= 0 || ev.Trigger != "slow" {
			t.Errorf("line %d = %+v, want route %s status %d", i+1, ev, want.route, want.status)
		}
		if want.traceID == "" || ev.TraceID != want.traceID {
			t.Errorf("line %d trace = %q, X-Trace-ID = %q", i+1, ev.TraceID, want.traceID)
		}
	}
}

// TestFlightEventsLogOff pins the other side: with -flight-triggers
// none no request fires a trigger, so events.ndjson stays empty.
func TestFlightEventsLogOff(t *testing.T) {
	dir := t.TempDir()
	triggers, err := obs.ParseTriggers("none")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, WithFlightRecorder(obs.FlightOptions{
		Dir:                dir,
		Triggers:           triggers,
		CPUProfileDuration: -1,
		SampleInterval:     -1,
	}))
	for _, path := range []string{"/sources", "/source/nope", "/"} {
		get(t, s, path)
	}
	s.Close()
	if got := s.Flight().EventCount(); got != 3 {
		t.Errorf("recorded %d wide events, want 3", got)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "events.ndjson")); err != nil || len(data) != 0 {
		t.Errorf("events.ndjson with no triggers: %q (err %v), want empty", data, err)
	}
}

// TestSnapshotIdentityOnHealthzAndStats pins satellite 1: a
// snapshot-booted server reports fingerprint/seed/scale on /healthz and
// /stats; a fresh server reports neither.
func TestSnapshotIdentityOnHealthzAndStats(t *testing.T) {
	snap, fresh := snapshotPair(t)

	type snapBlock struct {
		Fingerprint string  `json:"fingerprint"`
		Seed        int64   `json:"seed"`
		Scale       float64 `json:"scale"`
	}
	var health struct {
		Status   string     `json:"status"`
		Snapshot *snapBlock `json:"snapshot"`
	}
	code, body := get(t, snap, "/healthz")
	if code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("status = %q", health.Status)
	}
	if health.Snapshot == nil || health.Snapshot.Seed != snapSeed ||
		len(health.Snapshot.Fingerprint) != 16 || health.Snapshot.Fingerprint == strings.Repeat("0", 16) {
		t.Errorf("snapshot identity on /healthz = %+v", health.Snapshot)
	}

	var stats struct {
		Snapshot *snapBlock `json:"snapshot"`
	}
	if _, body := get(t, snap, "/stats"); true {
		if err := json.Unmarshal([]byte(body), &stats); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Snapshot == nil || stats.Snapshot.Fingerprint != health.Snapshot.Fingerprint {
		t.Errorf("/stats snapshot identity = %+v, want %+v", stats.Snapshot, health.Snapshot)
	}

	// Fresh server: no snapshot block, /healthz still ok.
	code, body = get(t, fresh, "/healthz")
	if code != 200 || !strings.Contains(body, `"ok"`) {
		t.Fatalf("fresh /healthz = %d %q", code, body)
	}
	if strings.Contains(body, "fingerprint") {
		t.Error("fresh server claims a snapshot fingerprint")
	}
}

// TestFlightP99TraceExemplar pins the /stats -> /trace link: route
// summaries expose a p99 trace exemplar that resolves via /trace/{id}.
func TestFlightP99TraceExemplar(t *testing.T) {
	s := testServer(t)
	// Ensure the route has traffic.
	for i := 0; i < 3; i++ {
		if code, _ := get(t, s, "/sources"); code != 200 {
			t.Fatal("seed traffic failed")
		}
	}
	_, body := get(t, s, "/stats")
	var info struct {
		Routes map[string]routeSummary `json:"routes"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	sum, ok := info.Routes["sources"]
	if !ok || sum.Count == 0 {
		t.Fatalf("no summary for route sources: %+v", info.Routes)
	}
	if sum.P99TraceID == "" {
		t.Fatal("route summary has no p99 trace exemplar")
	}
	if code, _ := get(t, s, "/trace/"+sum.P99TraceID); code != 200 {
		t.Errorf("p99 exemplar trace %s not resolvable: %d", sum.P99TraceID, code)
	}
}

// TestFlightProbeQueriesPerRequest pins that a wide event counts the
// probes its own request issued: fan-outs to two domains run
// concurrently, and each event records exactly its unified attribute's
// member count, however the other domain's probes interleave.
func TestFlightProbeQueriesPerRequest(t *testing.T) {
	s := newTestServer(t, WithFlightRecorder(obs.FlightOptions{
		Dir:                t.TempDir(),
		CPUProfileDuration: -1,
		SampleInterval:     -1,
	}))
	defer s.Close()
	want := map[string]int{} // fan-out path -> probes it issues
	var paths []string
	for _, dw := range testWorld(t).Domains {
		if dw.Domain != "airfare" && dw.Domain != "book" {
			continue
		}
		// airfare's widest attribute against book's narrowest, so the
		// two counts differ and a leak between them shows.
		var best *unify.UnifiedAttribute
		for _, ua := range dw.Unified.Attributes {
			if len(ua.Instances) == 0 {
				continue
			}
			if best == nil || (dw.Domain == "airfare") == (len(ua.Members) > len(best.Members)) {
				best = ua
			}
		}
		path := "/unified/" + dw.Domain + "/search"
		want[path] = len(best.Members)
		paths = append(paths, path+"?attr="+url.QueryEscape(best.Label)+"&value="+url.QueryEscape(best.Instances[0]))
	}
	if len(want) != 2 || want["/unified/airfare/search"] == want["/unified/book/search"] {
		t.Fatalf("fan-outs %q probing %v: need two domains with different member counts", paths, want)
	}
	const rounds = 40
	var wg sync.WaitGroup
	for _, p := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				req := httptest.NewRequest("GET", p, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("%s = %d", p, rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	for _, ev := range s.Flight().EventsSince(0) {
		if w, ok := want[ev.Path]; ok {
			n++
			if ev.ProbeQueries != w {
				t.Errorf("%s: wide event records %d probes, the request issued %d", ev.Path, ev.ProbeQueries, w)
			}
		}
	}
	if n != 2*rounds {
		t.Errorf("%d fan-out wide events, want %d", n, 2*rounds)
	}
}
