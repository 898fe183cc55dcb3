package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"webiq/internal/cluster"
)

// WithCluster joins the server to a multi-node cluster: a consistent-
// hash ring assigns every domain a primary and replicas, peer health is
// probed periodically over /readyz, and requests for domains this node
// does not own are forwarded to the primary with failover down the
// owner list (and a local serve as the last resort — every node holds
// the full world, so placement is a routing contract, not a data
// constraint). Without this option the server is byte-identical to a
// cluster-less build: no ring, no probes, no extra /stats fields.
func WithCluster(cfg cluster.Config) Option {
	return func(s *Server) { s.clusterCfg = &cfg }
}

// setupCluster constructs the cluster view and starts the health
// prober; it runs inside finish, before setupFlight so the flight
// recorder can hook the per-peer breakers.
func (s *Server) setupCluster() {
	if s.clusterCfg == nil {
		return
	}
	s.cluster = cluster.New(*s.clusterCfg)
	s.cluster.Instrument(s.reg)
	s.cluster.Start()
}

// Cluster exposes the node's cluster view (nil without WithCluster).
func (s *Server) Cluster() *cluster.Cluster { return s.cluster }

// domainFromUnifiedPath extracts the domain of /unified/{domain}[/...].
func domainFromUnifiedPath(r *http.Request) string {
	return domainOf(strings.TrimPrefix(r.URL.Path, "/unified/"))
}

// domainFromSourcePath extracts the domain of /source/{ifc}[/search].
func domainFromSourcePath(r *http.Request) string {
	return domainOf(strings.TrimPrefix(r.URL.Path, "/source/"))
}

// clusterWrap inserts the ownership check in front of a domain-scoped
// handler: requests for domains this node does not own are forwarded
// to the owning peers (primary first, replicas on failure) before the
// local handler ever runs. Hop-guarded requests, owned domains, and
// unknown domains (404 here is 404 everywhere — every node holds the
// same domain set) fall through to next. With no cluster configured
// the wrapper is the identity.
func (s *Server) clusterWrap(extract func(*http.Request) string, next http.Handler) http.Handler {
	if s.clusterCfg == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		domain := extract(r)
		if domain != "" && s.byDomain[domain] != nil && s.cluster.Serve(w, r, domain) {
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clusterStatsInfo is the /cluster/stats JSON shape: this node's
// routing view plus every reachable node's /stats, aggregated in one
// round of concurrent peer fetches.
type clusterStatsInfo struct {
	Cluster cluster.Stats              `json:"cluster"`
	Nodes   map[string]json.RawMessage `json:"nodes"`
	Errors  map[string]string          `json:"node_errors,omitempty"`
}

// handleClusterStats aggregates cluster-wide state: 404 without a
// cluster, otherwise this node's ring/membership/forward view plus the
// /stats body of every peer (fetched concurrently, each bounded by the
// probe timeout so one hung peer cannot stall the page).
func (s *Server) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		io.WriteString(w, `{"error":"cluster mode disabled; start the server with -peers"}`+"\n")
		return
	}
	info := clusterStatsInfo{
		Cluster: s.cluster.Stats(s.domainKeys()),
		Nodes:   map[string]json.RawMessage{},
		Errors:  map[string]string{},
	}
	// This node answers for itself without a self-request.
	self, err := json.Marshal(s.buildStats())
	if err == nil {
		info.Nodes[s.cluster.Self()] = self
	}

	type peerStats struct {
		id   string
		body []byte
		err  error
	}
	statuses := s.cluster.Membership().Statuses()
	results := make(chan peerStats, len(statuses))
	var wg sync.WaitGroup
	for _, m := range statuses {
		wg.Add(1)
		go func(id, base string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			body, err := fetchPeerStats(ctx, base)
			results <- peerStats{id: id, body: body, err: err}
		}(m.ID, m.BaseURL)
	}
	wg.Wait()
	close(results)
	for res := range results {
		if res.err != nil {
			info.Errors[res.id] = res.err.Error()
			continue
		}
		info.Nodes[res.id] = res.body
	}
	if len(info.Errors) == 0 {
		info.Errors = nil
	}
	writeJSON(w, info)
}

// fetchPeerStats GETs one peer's /stats and returns the raw JSON.
func fetchPeerStats(ctx context.Context, base string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats answered %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(body) {
		return nil, fmt.Errorf("/stats returned invalid JSON")
	}
	return body, nil
}

// domainKeys returns the served domain keys, sorted.
func (s *Server) domainKeys() []string {
	keys := make([]string, 0, len(s.byDomain))
	for k := range s.byDomain {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
