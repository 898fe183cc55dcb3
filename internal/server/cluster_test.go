package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webiq/internal/cluster"
	"webiq/internal/resilience"
)

// swapHandler lets the listener exist before the server it fronts:
// member base URLs are needed to construct each node's cluster config.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is a running multi-node cluster.
type testCluster struct {
	ids     []string
	servers map[string]*Server
	http    map[string]*httptest.Server
}

// startTestCluster boots n snapshot-backed nodes (n1..nN) wired into
// one cluster with replication 2 and fast forwarding retries. Probing
// is driven by the background prober (interval 50ms) AND available
// synchronously via ProbeNow for deterministic assertions.
func startTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	world := testWorld(t)

	tc := &testCluster{servers: map[string]*Server{}, http: map[string]*httptest.Server{}}
	handlers := map[string]*swapHandler{}
	var members []cluster.Member
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("n%d", i)
		tc.ids = append(tc.ids, id)
		sh := &swapHandler{}
		handlers[id] = sh
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		tc.http[id] = ts
		members = append(members, cluster.Member{ID: id, BaseURL: ts.URL})
	}
	for _, id := range tc.ids {
		srv, err := NewFromSnapshot(world, WithCluster(cluster.Config{
			Self:          id,
			Members:       members,
			Replication:   2,
			ProbeInterval: 50 * time.Millisecond,
			ProbeTimeout:  time.Second,
			DeadAfter:     3,
			Forward: cluster.ForwarderOptions{
				Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
				Seed:  1,
			},
		}))
		if err != nil {
			t.Fatalf("boot node %s: %v", id, err)
		}
		t.Cleanup(srv.Close)
		tc.servers[id] = srv
		handlers[id].set(srv)
	}
	// Nodes boot one after another, so the first node's prober may have
	// seen 503s from handlers not yet installed. Settle every membership
	// view to alive before handing the cluster to the test.
	for _, id := range tc.ids {
		tc.servers[id].Cluster().ProbeNow(context.Background())
	}
	return tc
}

// get fetches a path from one node over real HTTP.
func (tc *testCluster) get(t *testing.T, id, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(tc.http[id].URL + path)
	if err != nil {
		t.Fatalf("GET %s on %s: %v", path, id, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s on %s: %v", path, id, err)
	}
	return resp, string(body)
}

// nonOwnerOf returns a node that does not own the domain, plus the
// domain's owner list.
func (tc *testCluster) nonOwnerOf(t *testing.T, domain string) (string, []string) {
	t.Helper()
	owners := tc.servers[tc.ids[0]].Cluster().Owners(domain)
	owned := map[string]bool{}
	for _, id := range owners {
		owned[id] = true
	}
	for _, id := range tc.ids {
		if !owned[id] {
			return id, owners
		}
	}
	t.Fatalf("every node owns %s (owners %v)", domain, owners)
	return "", nil
}

// TestClusterForwardsToOwnerAndHopGuards: a request for a non-owned
// domain is forwarded to the primary (X-WebIQ-Served-By names it); a
// request already carrying the hop-guard header is served locally,
// never re-forwarded.
func TestClusterForwardsToOwnerAndHopGuards(t *testing.T) {
	tc := startTestCluster(t, 3)
	domain := "airfare"
	requester, owners := tc.nonOwnerOf(t, domain)

	resp, body := tc.get(t, requester, "/unified/"+domain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded /unified/%s = %d", domain, resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.ServedByHeader); got != owners[0] {
		t.Fatalf("served by %q, want primary %q", got, owners[0])
	}
	if !strings.Contains(body, "<form") {
		t.Fatalf("forwarded body is not the unified form: %.100s", body)
	}

	// Hop guard: stamped requests serve locally.
	req, _ := http.NewRequest("GET", tc.http[requester].URL+"/unified/"+domain, nil)
	req.Header.Set(cluster.ForwardedHeader, "n99")
	hopResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hopResp.Body.Close()
	if hopResp.StatusCode != http.StatusOK {
		t.Fatalf("hop-guarded request = %d", hopResp.StatusCode)
	}
	if got := hopResp.Header.Get(cluster.ServedByHeader); got != "" {
		t.Fatalf("hop-guarded request was re-forwarded to %q", got)
	}

	// The requester's routing counters saw both modes.
	served := tc.servers[requester].Cluster().Served()
	if served["forwarded"] != 1 || served["hop"] != 1 {
		t.Fatalf("served = %v, want forwarded=1 hop=1", served)
	}
}

// TestClusterFailoverOnDeadPrimary kills a domain's primary and
// requires the replica to take over: the domain stays servable through
// any surviving node, which is the chaos-gate availability contract.
func TestClusterFailoverOnDeadPrimary(t *testing.T) {
	tc := startTestCluster(t, 3)
	domain := "airfare"
	requester, owners := tc.nonOwnerOf(t, domain)

	tc.http[owners[0]].Close() // the primary dies

	resp, _ := tc.get(t, requester, "/unified/"+domain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/unified/%s after primary death = %d", domain, resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.ServedByHeader); got != owners[1] {
		t.Fatalf("served by %q, want replica %q", got, owners[1])
	}
	if tc.servers[requester].Cluster().Served()["failover"] != 1 {
		t.Fatalf("served = %v, want failover=1", tc.servers[requester].Cluster().Served())
	}

	// Once probes mark the primary dead, it leaves the forward order
	// entirely and requests go straight to the replica.
	deadline := time.Now().Add(5 * time.Second)
	for tc.servers[requester].Cluster().Membership().State(owners[0]) != cluster.StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("primary %s never marked dead", owners[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, _ = tc.get(t, requester, "/unified/"+domain)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cluster.ServedByHeader) != owners[1] {
		t.Fatalf("post-death request: %d served by %q, want 200 from %s",
			resp.StatusCode, resp.Header.Get(cluster.ServedByHeader), owners[1])
	}
}

// TestClusterSourceRouteForwards: the /source/{ifc} routes shard by
// the interface's domain prefix, like /unified.
func TestClusterSourceRouteForwards(t *testing.T) {
	tc := startTestCluster(t, 3)
	domain := "book"
	requester, owners := tc.nonOwnerOf(t, domain)
	resp, body := tc.get(t, requester, "/source/"+domain+"/if00")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/source/%s/if00 = %d", domain, resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.ServedByHeader); got != owners[0] {
		t.Fatalf("served by %q, want primary %q", got, owners[0])
	}
	if !strings.Contains(body, "<form") {
		t.Fatalf("forwarded source page has no form: %.100s", body)
	}
}

// TestClusterStatsAggregation: /cluster/stats on any node carries the
// ring view plus every node's /stats document.
func TestClusterStatsAggregation(t *testing.T) {
	tc := startTestCluster(t, 3)
	resp, body := tc.get(t, "n1", "/cluster/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/stats = %d", resp.StatusCode)
	}
	var info struct {
		Cluster struct {
			Self        string              `json:"self"`
			Replication int                 `json:"replication"`
			Nodes       []string            `json:"nodes"`
			Owners      map[string][]string `json:"owners"`
		} `json:"cluster"`
		Nodes  map[string]json.RawMessage `json:"nodes"`
		Errors map[string]string          `json:"node_errors"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("bad /cluster/stats JSON: %v", err)
	}
	if info.Cluster.Self != "n1" || info.Cluster.Replication != 2 || len(info.Cluster.Nodes) != 3 {
		t.Fatalf("cluster block = %+v", info.Cluster)
	}
	if len(info.Cluster.Owners) != 5 {
		t.Fatalf("owners cover %d domains, want 5", len(info.Cluster.Owners))
	}
	for d, o := range info.Cluster.Owners {
		if len(o) != 2 {
			t.Fatalf("domain %s owners = %v, want 2", d, o)
		}
	}
	if len(info.Nodes) != 3 {
		t.Fatalf("aggregated %d node stats (errors %v), want 3", len(info.Nodes), info.Errors)
	}
	// Each embedded node document is a full /stats body.
	for id, raw := range info.Nodes {
		var st struct {
			CorpusPages int `json:"corpus_pages"`
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("node %s stats invalid: %v", id, err)
		}
		if st.CorpusPages == 0 {
			t.Fatalf("node %s stats has no corpus_pages", id)
		}
	}
}

// TestClusterStatsBlockOnNodeStats: /stats on a cluster node carries
// the cluster block (peer health, breakers, forward counts).
func TestClusterStatsBlockOnNodeStats(t *testing.T) {
	tc := startTestCluster(t, 3)
	resp, body := tc.get(t, "n2", "/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats = %d", resp.StatusCode)
	}
	var st struct {
		Cluster *struct {
			Self     string            `json:"self"`
			Members  []json.RawMessage `json:"members"`
			Breakers map[string]string `json:"peer_breakers"`
		} `json:"cluster"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil || st.Cluster.Self != "n2" {
		t.Fatalf("stats cluster block = %+v", st.Cluster)
	}
	if len(st.Cluster.Members) != 2 || len(st.Cluster.Breakers) != 2 {
		t.Fatalf("cluster block members/breakers = %d/%d, want 2/2",
			len(st.Cluster.Members), len(st.Cluster.Breakers))
	}
}

// TestSingleNodeStatsUnchanged pins the compatibility contract: with
// no -peers, /stats has no cluster key and /cluster/stats answers 404
// — a single-node deployment is byte-identical to the pre-cluster
// server.
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
		t.Fatal("single-node /stats contains a cluster block")
	}
	rec = httptest.NewRecorder()
	snap.ServeHTTP(rec, httptest.NewRequest("GET", "/cluster/stats", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("single-node /cluster/stats = %d, want 404", rec.Code)
	}
}

// TestClusterDrainStopsForwarding is the drain integration contract:
// BeginDrain flips the node's /readyz, peers mark it suspect within
// one probe round, and forwarded traffic routes to the replica instead
// — the draining node sees no new forwards.
func TestClusterDrainStopsForwarding(t *testing.T) {
	tc := startTestCluster(t, 3)
	domain := "airfare"
	requester, owners := tc.nonOwnerOf(t, domain)
	primary := owners[0]

	// Sanity: pre-drain traffic lands on the primary.
	resp, _ := tc.get(t, requester, "/unified/"+domain)
	if got := resp.Header.Get(cluster.ServedByHeader); got != primary {
		t.Fatalf("pre-drain served by %q, want %q", got, primary)
	}

	tc.servers[primary].BeginDrain()
	// The draining node's own /readyz flips immediately...
	resp, _ = tc.get(t, primary, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	// ...and one probe round is all a peer needs to demote it.
	tc.servers[requester].Cluster().ProbeNow(context.Background())
	if got := tc.servers[requester].Cluster().Membership().State(primary); got != cluster.StateSuspect {
		t.Fatalf("draining node state = %v after one probe, want suspect", got)
	}

	// Forwarded traffic now prefers the alive replica.
	resp, _ = tc.get(t, requester, "/unified/"+domain)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/unified/%s during drain = %d", domain, resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.ServedByHeader); got != owners[1] {
		t.Fatalf("during drain served by %q, want replica %q", got, owners[1])
	}
}
