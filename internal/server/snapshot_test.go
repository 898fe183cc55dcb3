package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webiq/internal/kb"
)

// The snapshot-backed server boots from the shared test world (which
// went through the serialized form, so these tests cover the snapshot
// server as deployed, on JSON-restored datasets and interfaces); the
// fresh one comes from New, which builds its own world in memory. Both
// are built once per test binary and shared read-only.
var (
	snapPairOnce sync.Once
	snapSrv      *Server
	freshSrv     *Server
	snapPairErr  error
)

func snapshotPair(t *testing.T) (snap, fresh *Server) {
	t.Helper()
	world := testWorld(t)
	snapPairOnce.Do(func() {
		if snapSrv, snapPairErr = NewFromSnapshot(world); snapPairErr != nil {
			return
		}
		freshSrv, snapPairErr = New(snapSeed)
	})
	if snapPairErr != nil {
		t.Fatalf("build snapshot/fresh server pair: %v", snapPairErr)
	}
	return snapSrv, freshSrv
}

// TestSnapshotServerReadyImmediately pins one boot path: a snapshot
// server and a fresh one both report every domain ready before any
// request, with identical /readyz bodies.
func TestSnapshotServerReadyImmediately(t *testing.T) {
	snap, fresh := snapshotPair(t)
	code, body := get(t, snap, "/readyz")
	if code != 200 {
		t.Fatalf("/readyz on a snapshot server = %d, want 200; body %s", code, body)
	}
	var info struct {
		Ready   bool            `json:"ready"`
		Domains map[string]bool `json:"domains"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("bad /readyz JSON: %v", err)
	}
	if !info.Ready {
		t.Error("snapshot server not ready at boot")
	}
	for _, dom := range kb.Domains() {
		if !info.Domains[dom.Key] {
			t.Errorf("domain %s not ready at boot", dom.Key)
		}
	}
	if fc, fb := get(t, fresh, "/readyz"); fc != code || fb != body {
		t.Errorf("/readyz on a fresh server = %d %s, want the snapshot server's %d %s", fc, fb, code, body)
	}
}

// TestSnapshotServerUnifiedBytes is the boot equivalence at the HTTP
// boundary: the rendered /unified/{domain} HTML must be byte-identical
// between the snapshot-backed server and a fresh server that built the
// same seed in memory.
func TestSnapshotServerUnifiedBytes(t *testing.T) {
	snap, fresh := snapshotPair(t)
	for _, dom := range kb.Domains() {
		path := "/unified/" + dom.Key
		sc, sb := get(t, snap, path)
		fc, fb := get(t, fresh, path)
		if sc != 200 || fc != 200 {
			t.Fatalf("%s: status snapshot=%d fresh=%d", path, sc, fc)
		}
		if sb != fb {
			t.Errorf("%s: HTML differs between snapshot and fresh servers", path)
		}
	}
}

// TestSnapshotServerSourcesBytes extends byte-equivalence to the
// dataset-backed routes: the source index and every rendered interface
// form.
func TestSnapshotServerSourcesBytes(t *testing.T) {
	snap, fresh := snapshotPair(t)
	sc, sb := get(t, snap, "/sources")
	fc, fb := get(t, fresh, "/sources")
	if sc != 200 || fc != 200 || sb != fb {
		t.Fatalf("/sources differs: status snapshot=%d fresh=%d", sc, fc)
	}
	var sources []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(sb), &sources); err != nil {
		t.Fatalf("bad /sources JSON: %v", err)
	}
	if len(sources) == 0 {
		t.Fatal("no sources listed")
	}
	for _, src := range sources[:min(len(sources), 10)] {
		path := "/source/" + src.ID
		sc, sb := get(t, snap, path)
		fc, fb := get(t, fresh, path)
		if sc != 200 || fc != 200 {
			t.Fatalf("%s: status snapshot=%d fresh=%d", path, sc, fc)
		}
		if sb != fb {
			t.Errorf("%s: form HTML differs between snapshot and fresh servers", path)
		}
	}
}

// TestSnapshotServerExplain compares build provenance: byte-identical,
// since both worlds were built without a tracer.
func TestSnapshotServerExplain(t *testing.T) {
	snap, fresh := snapshotPair(t)
	for _, dom := range kb.Domains() {
		path := "/unified/" + dom.Key + "/explain"
		sc, sb := get(t, snap, path)
		fc, fb := get(t, fresh, path)
		if sc != 200 || fc != 200 {
			t.Fatalf("%s: status snapshot=%d fresh=%d", path, sc, fc)
		}
		if sb != fb {
			t.Errorf("%s: provenance differs between snapshot and fresh servers", path)
		}
	}
}

// TestSnapshotServerUnifiedSearch drives a probe through the restored
// translators and pools.
func TestSnapshotServerUnifiedSearch(t *testing.T) {
	snap, fresh := snapshotPair(t)
	for _, path := range []string{
		"/unified/book/search?attr=Author&value=Mark+Twain",
		"/unified/book/search?attr=Nope&value=x",
	} {
		sc, sb := get(t, snap, path)
		fc, fb := get(t, fresh, path)
		if sc != fc {
			t.Fatalf("%s: status snapshot=%d fresh=%d", path, sc, fc)
		}
		if sb != fb {
			t.Errorf("%s: search results differ between snapshot and fresh servers", path)
		}
	}
}

// TestSnapshotServerStartupMetric covers RecordStartup: the /stats
// field and the gauge both expose it.
func TestSnapshotServerStartupMetric(t *testing.T) {
	snap, _ := snapshotPair(t)
	snap.RecordStartup(1500 * time.Millisecond)
	_, body := get(t, snap, "/stats")
	var info struct {
		StartupSeconds float64 `json:"startup_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	if info.StartupSeconds != 1.5 {
		t.Errorf("startup_seconds = %g, want 1.5", info.StartupSeconds)
	}
	_, metrics := get(t, snap, "/metrics")
	if !strings.Contains(metrics, "webiq_startup_seconds 1.5") {
		t.Error("/metrics missing webiq_startup_seconds gauge")
	}
}

// TestSnapshotServerDecisionCounters checks the stored counts restored the
// same decision metrics on both boot paths.
func TestSnapshotServerDecisionCounters(t *testing.T) {
	snap, fresh := snapshotPair(t)
	_, sm := get(t, snap, "/metrics")
	_, fm := get(t, fresh, "/metrics")
	want := grepMetric(fm, "webiq_decisions_total")
	got := grepMetric(sm, "webiq_decisions_total")
	if len(want) == 0 {
		t.Fatal("fresh server exposes no decision counters")
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("decision counter %s: snapshot %q, fresh %q", k, got[k], v)
		}
	}
}

// TestSingleNodeStatsUnchanged pins the /stats shape of a node booted
// from a snapshot: no cluster key, and /cluster/stats is not a route
// (it falls through to the index handler's 404).
func TestSingleNodeStatsUnchanged(t *testing.T) {
	snap, _ := snapshotPair(t)
	rec := httptest.NewRecorder()
	snap.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats = %d", rec.Code)
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, present := doc["cluster"]; present {
		t.Fatal("/stats contains a cluster block")
	}
	rec = httptest.NewRecorder()
	snap.ServeHTTP(rec, httptest.NewRequest("GET", "/cluster/stats", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/cluster/stats = %d, want 404", rec.Code)
	}
}

func grepMetric(metrics, name string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name) {
			if k, v, ok := strings.Cut(line, " "); ok {
				out[k] = v
			}
		}
	}
	return out
}
