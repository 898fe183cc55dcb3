package server

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"webiq/internal/resilience"
	"webiq/internal/snapshot"
)

// Building a world runs the full pipeline for every domain, so the
// tests build one per test binary, round-trip it through the snapshot
// encoding, and share it read-only: every test server boots from it.
var (
	worldOnce sync.Once
	world     *snapshot.World
	worldErr  error

	srvOnce sync.Once
	srv     *Server
)

const snapSeed = 1

func testWorld(t *testing.T) *snapshot.World {
	t.Helper()
	worldOnce.Do(func() {
		built, err := snapshot.BuildWorld(snapshot.BuildConfig{Seed: snapSeed})
		if err != nil {
			worldErr = err
			return
		}
		raw, err := built.Bytes()
		if err != nil {
			worldErr = err
			return
		}
		world, worldErr = snapshot.LoadBytes(raw)
	})
	if worldErr != nil {
		t.Fatalf("build test world: %v", worldErr)
	}
	return world
}

// newTestServer boots a server with opts from the shared test world:
// the boot New runs after building its world, minus the build.
func newTestServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := boot(testWorld(t), nil, opts)
	if err != nil {
		t.Fatalf("boot test server: %v", err)
	}
	return s
}

// testServer is a shared server for tests that need no options.
func testServer(t *testing.T) *Server {
	t.Helper()
	srvOnce.Do(func() { srv = newTestServer(t) })
	return srv
}

func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestIndex(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"airfare", "book", "unified"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestSourcesJSON(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/sources")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var out []sourceInfo
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 { // 5 domains × 20 interfaces
		t.Errorf("sources = %d, want 100", len(out))
	}
	for _, si := range out[:3] {
		if si.ID == "" || si.Attributes == 0 {
			t.Errorf("bad source %+v", si)
		}
	}
}

func TestSourceFormPage(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/source/airfare/if00")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "<form") || !strings.Contains(body, "label") {
		t.Errorf("form page malformed: %.200s", body)
	}
}

func TestSourceNotFound(t *testing.T) {
	s := testServer(t)
	if code, _ := get(t, s, "/source/airfare/if99"); code != 404 {
		t.Errorf("status = %d, want 404", code)
	}
	if code, _ := get(t, s, "/source/nodomain/if00"); code != 404 {
		t.Errorf("status = %d, want 404", code)
	}
}

func TestSearchSubmission(t *testing.T) {
	s := testServer(t)
	// Find a source and a field index we can probe with a city.
	_, bodyJSON := get(t, s, "/sources")
	var sources []sourceInfo
	if err := json.Unmarshal([]byte(bodyJSON), &sources); err != nil {
		t.Fatal(err)
	}
	// Probe the first airfare source's fields with a common city until a
	// response comes back; we only assert the endpoint serves pages.
	code, body := get(t, s, "/source/airfare/if00/search?f0=Boston")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "<html") {
		t.Errorf("search response not a page: %.120s", body)
	}
	if len(sources) == 0 {
		t.Error("no sources listed")
	}
}

func TestSearchEmptySubmission(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/source/airfare/if00/search")
	if code != 200 || !strings.Contains(strings.ToLower(body), "fill in") {
		t.Errorf("empty submission: code=%d body=%.120s", code, body)
	}
}

func TestStats(t *testing.T) {
	s := testServer(t)
	// Issue at least one search and one probe so the virtual clocks
	// have something to report.
	get(t, s, "/source/airfare/if00/search?f0=Boston")
	s.engine.NumHits(`"boston"`)
	code, body := get(t, s, "/stats")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	var info statsInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.CorpusPages == 0 {
		t.Error("no corpus pages reported")
	}
	if len(info.ProbesByPool) != 5 {
		t.Errorf("pools = %d", len(info.ProbesByPool))
	}
	if len(info.ProbeVirtualByPool) != 5 {
		t.Errorf("probe virtual pools = %d", len(info.ProbeVirtualByPool))
	}
	if info.SearchVirtualSeconds <= 0 {
		t.Errorf("search virtual seconds = %v, want > 0", info.SearchVirtualSeconds)
	}
	if info.ProbeVirtualByPool["airfare"] <= 0 {
		t.Errorf("airfare probe virtual seconds = %v, want > 0", info.ProbeVirtualByPool["airfare"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := testServer(t)
	// Generate some traffic first so HTTP and substrate series exist.
	get(t, s, "/")
	get(t, s, "/sources")
	get(t, s, "/source/airfare/if00/search?f0=Boston")
	get(t, s, "/source/airfare/if99") // 404: exercises the status classes
	code, body := get(t, s, "/metrics")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	// Valid Prometheus text exposition: every non-comment line is
	// "name{labels} value" and every family has a TYPE line.
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("bad TYPE line: %q", line)
				continue
			}
			types[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("bad sample line: %q", line)
		}
	}
	for _, fam := range []string{
		"webiq_http_requests_total",
		"webiq_http_request_seconds",
		"webiq_http_in_flight",
		"webiq_engine_queries_total",
		"webiq_engine_corpus_docs",
		"webiq_pool_probes_total",
	} {
		if !types[fam] {
			t.Errorf("metrics missing family %q:\n%.400s", fam, body)
		}
	}
	for _, want := range []string{
		`webiq_http_requests_total{route="source",class="4xx"}`,
		`webiq_pool_probes_total{source="airfare/if00"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing series %q", want)
		}
	}
}

// TestMetricsCoverAcquisition asserts the build's decisions are on
// /metrics from boot: the replayed ledgers count every acquisition
// component's and the matcher's decisions.
func TestMetricsCoverAcquisition(t *testing.T) {
	s := testServer(t)
	_, body := get(t, s, "/metrics")
	for _, comp := range []string{"surface", "attr-surface", "attr-deep", "matcher"} {
		if !strings.Contains(body, `webiq_decisions_total{component="`+comp+`"`) {
			t.Errorf("metrics missing decisions of component %q", comp)
		}
	}
	for _, dom := range []string{"airfare", "auto", "book", "job", "realestate"} {
		if !strings.Contains(body, `webiq_unified_ready{domain="`+dom+`"} 1`) {
			t.Errorf("metrics missing webiq_unified_ready{domain=%q} 1", dom)
		}
	}
}

func TestUnifiedInterface(t *testing.T) {
	s := testServer(t)
	code, body := get(t, s, "/unified/book")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"<form", "Title", "Author"} {
		if !strings.Contains(body, want) {
			t.Errorf("unified page missing %q", want)
		}
	}
	// Concurrent requests read the same installed interface.
	const n = 4
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/unified/book", nil))
			bodies[i] = rec.Body.String()
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if b != body {
			t.Errorf("concurrent request %d body differs", i)
		}
	}
}

func TestUnifiedUnknownDomain(t *testing.T) {
	s := testServer(t)
	if code, _ := get(t, s, "/unified/nope"); code != 404 {
		t.Errorf("status = %d, want 404", code)
	}
}

func TestUnifiedSearch(t *testing.T) {
	s := testServer(t)
	// Discover a queryable attribute from the unified form.
	_, form := get(t, s, "/unified/book")
	attr := "Author"
	if !strings.Contains(form, attr) {
		t.Skipf("unified form lacks %q", attr)
	}
	code, body := get(t, s, "/unified/book/search?attr=Author&value=Mark+Twain")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "sources answered") {
		t.Errorf("summary missing: %.200s", body)
	}
	// Unknown attribute is a 400.
	code, _ = get(t, s, "/unified/book/search?attr=Nope&value=x")
	if code != 400 {
		t.Errorf("status = %d, want 400", code)
	}
}

// TestChaosRequestProbes pins fault injection on the server: under p30
// the request-time probes of /source/{ifc}/search and the
// /unified/{domain}/search fan-out go through the resilient source
// client on both boot paths. /stats then shows that client's breaker
// and counts every probe that failed after retries, each of which
// answered 503 or was listed as unavailable. Without a profile neither
// block appears.
func TestChaosRequestProbes(t *testing.T) {
	prof, err := resilience.ProfileByName("p30")
	if err != nil {
		t.Fatal(err)
	}
	world := testWorld(t)
	fresh, err := New(snapSeed, WithFaultProfile(prof, 7))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewFromSnapshot(world, WithFaultProfile(prof, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Server
	}{{"new", fresh}, {"snapshot", snap}} {
		t.Run(tc.name, func(t *testing.T) {
			unavailable, refused := 0, 0
			for _, dw := range world.Domains {
				for _, ua := range dw.Unified.Attributes {
					if len(ua.Instances) == 0 {
						continue
					}
					path := "/unified/" + dw.Domain + "/search?attr=" + url.QueryEscape(ua.Label) + "&value=" + url.QueryEscape(ua.Instances[0])
					code, body := get(t, tc.s, path)
					if code != 200 {
						t.Fatalf("%s: status %d", path, code)
					}
					unavailable += strings.Count(body, ": unavailable</li>")
				}
				for _, ifc := range world.Dataset(dw.Domain).Interfaces {
					switch code, _ := get(t, tc.s, "/source/"+ifc.ID+"/search?f0=x"); code {
					case 200:
					case 503:
						refused++
					default:
						t.Fatalf("probe %s: status %d", ifc.ID, code)
					}
				}
			}
			_, body := get(t, tc.s, "/stats")
			var info statsInfo
			if err := json.Unmarshal([]byte(body), &info); err != nil {
				t.Fatal(err)
			}
			if _, ok := info.Breakers["deep"]; !ok || len(info.Breakers) != 1 {
				t.Errorf("breakers = %v, want the deep source client's alone", info.Breakers)
			}
			total := 0
			for _, n := range info.ProbeFailuresByDomain {
				total += n
			}
			if unavailable == 0 || refused == 0 {
				t.Errorf("fan-outs listed %d unavailable sources and the probe route answered %d 503s; want both > 0", unavailable, refused)
			}
			if total != unavailable+refused {
				t.Errorf("/stats counts %d failed probes, responses showed %d", total, unavailable+refused)
			}
		})
	}

	_, body := get(t, testServer(t), "/stats")
	for _, key := range []string{`"breakers"`, `"probe_failures_by_domain"`} {
		if strings.Contains(body, key) {
			t.Errorf("/stats without a fault profile has %s", key)
		}
	}
}
