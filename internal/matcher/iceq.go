package matcher

import (
	"container/heap"
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"webiq/internal/obs"
	"webiq/internal/parallel"
	"webiq/internal/schema"
	"webiq/internal/sim"
)

// Linkage selects how cluster-to-cluster similarity is updated when two
// clusters merge.
type Linkage int

// Linkage strategies.
const (
	// SingleLink uses the maximum pairwise similarity — the default,
	// matching the τ=0 reading "any two attributes with positive
	// similarity may potentially be matched".
	SingleLink Linkage = iota
	// AverageLink uses the size-weighted mean pairwise similarity.
	AverageLink
	// CompleteLink uses the minimum pairwise similarity.
	CompleteLink
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case AverageLink:
		return "average"
	case CompleteLink:
		return "complete"
	default:
		return "single"
	}
}

// Config holds the matcher parameters. The paper sets α = .6, β = .4
// (following IceQ) and evaluates thresholds τ = 0 ("no thresholding":
// any positive similarity is a potential match) and τ = .1.
type Config struct {
	// Alpha weights label similarity; Beta weights domain similarity.
	Alpha, Beta float64
	// Threshold is the clustering threshold τ: cluster pairs with
	// similarity at or below it are not merged.
	Threshold float64
	// Linkage selects the agglomerative linkage (default SingleLink).
	Linkage Linkage
	// Workers bounds the goroutines used to build the pairwise
	// similarity matrix; 0 means GOMAXPROCS, and any count is clamped to
	// the CPUs that can run at once. The matrix is identical for any
	// worker count — each pair is scored once into its own slot.
	Workers int
}

// DefaultConfig mirrors the paper's parameters with no thresholding.
func DefaultConfig() Config {
	return Config{Alpha: 0.6, Beta: 0.4, Threshold: 0}
}

// Matcher is an IceQ-style interface matcher.
type Matcher struct {
	cfg Config

	// Optional metrics; nil-safe no-ops when Instrument was not called.
	mPairs    *obs.Counter
	mMerges   *obs.Counter
	mDuration *obs.Histogram

	// Optional span tracer and decision-provenance ledger (see
	// SetSpanTracer / SetLedger); both nil-safe.
	spans  *obs.Tracer
	ledger *obs.Ledger
}

// New returns a Matcher with the given configuration.
func New(cfg Config) *Matcher {
	return &Matcher{cfg: cfg}
}

// Instrument registers the matcher's metrics on r:
//
//	webiq_matcher_pairs_scored_total  attribute pairs scored with Sim
//	webiq_matcher_merges_total        cluster merges performed
//	webiq_matcher_match_seconds       wall-clock duration of Match runs
//
// Passing nil leaves the matcher uninstrumented (the default).
func (m *Matcher) Instrument(r *obs.Registry) {
	m.mPairs = r.Counter("webiq_matcher_pairs_scored_total", "Attribute pairs scored by the similarity measure.")
	m.mMerges = r.Counter("webiq_matcher_merges_total", "Agglomerative cluster merges performed.")
	m.mDuration = r.Histogram("webiq_matcher_match_seconds", "Wall-clock duration of full Match runs in seconds.", nil)
}

// SetSpanTracer installs a span tracer: MatchCtx emits one "match" span
// per run, joined to the trace carried by its context. nil disables it.
func (m *Matcher) SetSpanTracer(t *obs.Tracer) { m.spans = t }

// SetLedger installs the decision-provenance ledger: every cluster
// merge is recorded as a "matcher"/"merge" decision carrying the merge
// order, the cluster similarity that triggered it, and the
// α·LabelSim + β·DomSim breakdown of the strongest supporting attribute
// pair. nil disables recording.
func (m *Matcher) SetLedger(l *obs.Ledger) { m.ledger = l }

// AttrSim computes Sim(A,B) = α·LabelSim + β·DomSim over labels and all
// (predefined + acquired) instances.
func (m *Matcher) AttrSim(a, b *schema.Attribute) float64 {
	m.mPairs.Inc()
	ls := sim.LabelSim(a.Label, b.Label)
	dsim := DomSim(a.AllInstances(), b.AllInstances())
	return m.cfg.Alpha*ls + m.cfg.Beta*dsim
}

// Result is the matcher output: clusters of attribute IDs and the
// implied match pairs (pairs of attributes from different interfaces in
// one cluster). MergeSims records the cluster similarity at each merge,
// in merge order — the raw material for threshold learning.
type Result struct {
	Clusters  [][]string
	Pairs     map[schema.MatchPair]bool
	MergeSims []float64
}

// Match clusters the dataset's attributes with constrained single-link
// agglomerative clustering: repeatedly merge the most similar pair of
// clusters whose union contains no two attributes from the same
// interface, while the best similarity exceeds the threshold. With the
// paper's τ = 0 setting, any two attributes with positive similarity may
// end up matched; τ = .1 prunes the weak links.
//
// The similarity matrix is built in parallel (Config.Workers) and the
// merge loop selects each best pair from a lazy-deletion max-heap, so a
// full run costs O(n² log n) instead of the naive O(n³) rescan; the
// Result is identical either way (the heap reproduces the scan's
// strictly-greater, lowest-(i,j)-wins tie-break exactly).
func (m *Matcher) Match(ds *schema.Dataset) *Result {
	return m.MatchCtx(context.Background(), ds)
}

// MatchCtx is Match with the caller's trace context: the run's "match"
// span joins the trace carried by ctx and merge decisions recorded in
// the ledger carry the trace identity.
func (m *Matcher) MatchCtx(ctx context.Context, ds *schema.Dataset) *Result {
	if m.mDuration != nil {
		start := time.Now()
		defer func() { m.mDuration.Observe(time.Since(start).Seconds()) }()
	}
	attrs := ds.AllAttributes()
	n := len(attrs)
	spanCtx, span := m.spans.StartSpan(ctx, "match")
	span.Label("domain", ds.Domain).Label("linkage", m.cfg.Linkage.String())
	defer span.End()
	ctx = spanCtx

	// Pairwise attribute similarities, one row per worker at a time.
	// Per-attribute derivations (type inference, value folding, label
	// vectors) are profiled once up front instead of per pair, and every
	// pair is scored exactly once into its own slot, so the matrix (and
	// the pairs-scored counter, which is atomic) is bitwise identical to
	// a sequential build of AttrSim calls.
	workers := m.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	profiles, labelSims := buildProfiles(attrs, workers)
	simMat := make([][]float64, n)
	for i := range simMat {
		simMat[i] = make([]float64, n)
	}
	// The matrix needs every row, so its build does not stop on ctx.
	parallel.For(context.Background(), n, workers, func(i int) {
		for j := i + 1; j < n; j++ {
			m.mPairs.Inc()
			ls := labelSims[profiles[i].labelID][profiles[j].labelID]
			simMat[i][j] = m.cfg.Alpha*ls + m.cfg.Beta*domSim(&profiles[i], &profiles[j])
		}
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			simMat[j][i] = simMat[i][j]
		}
	}

	// Cluster state: each cluster tracks its member indices, the
	// interfaces covered, and single-link similarities to other
	// clusters (maintained with Lance–Williams updates).
	type cluster struct {
		members []int
		ifaces  map[string]bool
		alive   bool
	}
	clusters := make([]*cluster, n)
	cs := make([][]float64, n) // cluster-to-cluster average-link sims
	for i := range clusters {
		clusters[i] = &cluster{
			members: []int{i},
			ifaces:  map[string]bool{attrs[i].InterfaceID: true},
			alive:   true,
		}
		cs[i] = make([]float64, n)
		copy(cs[i], simMat[i])
	}

	var mergeSims []float64
	conflict := func(a, b *cluster) bool {
		for ifc := range b.ifaces {
			if a.ifaces[ifc] {
				return true
			}
		}
		return false
	}

	// Candidate pairs live in a max-heap keyed (sim desc, i asc, j asc) —
	// exactly the order the former full rescan selected them in (it took
	// strictly greater similarities only, so among ties the earliest
	// (i,j) won). Entries are deleted lazily: a popped entry is acted on
	// only if both clusters are alive and cs still holds the entry's
	// value; anything else is a superseded duplicate. Conflicting pairs
	// are dropped for good — interface sets only grow, so a conflict
	// never clears.
	h := make(pairHeap, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cs[i][j] > m.cfg.Threshold && attrs[i].InterfaceID != attrs[j].InterfaceID {
				h = append(h, pairEntry{sim: cs[i][j], i: i, j: j})
			}
		}
	}
	heap.Init(&h)

	for h.Len() > 0 {
		e := heap.Pop(&h).(pairEntry)
		if !clusters[e.i].alive || !clusters[e.j].alive || cs[e.i][e.j] != e.sim {
			continue
		}
		if conflict(clusters[e.i], clusters[e.j]) {
			continue
		}
		bi, bj, best := e.i, e.j, e.sim
		if m.ledger != nil {
			m.recordMerge(ctx, attrs, profiles, labelSims, simMat,
				clusters[bi].members, clusters[bj].members, best, len(mergeSims)+1)
		}
		mergeSims = append(mergeSims, best)
		m.mMerges.Inc()
		// Merge bj into bi; update cluster similarities per the linkage
		// (Lance–Williams updates) and push the refreshed pairs.
		ni := float64(len(clusters[bi].members))
		nj := float64(len(clusters[bj].members))
		clusters[bi].members = append(clusters[bi].members, clusters[bj].members...)
		for ifc := range clusters[bj].ifaces {
			clusters[bi].ifaces[ifc] = true
		}
		clusters[bj].alive = false
		for k := 0; k < n; k++ {
			if k == bi || k == bj || !clusters[k].alive {
				continue
			}
			var v float64
			switch m.cfg.Linkage {
			case AverageLink:
				v = (ni*cs[bi][k] + nj*cs[bj][k]) / (ni + nj)
			case CompleteLink:
				v = cs[bi][k]
				if cs[bj][k] < v {
					v = cs[bj][k]
				}
			default: // SingleLink
				v = cs[bi][k]
				if cs[bj][k] > v {
					v = cs[bj][k]
				}
			}
			cs[bi][k] = v
			cs[k][bi] = v
			if v > m.cfg.Threshold && !conflict(clusters[bi], clusters[k]) {
				lo, hi := bi, k
				if k < bi {
					lo, hi = k, bi
				}
				heap.Push(&h, pairEntry{sim: v, i: lo, j: hi})
			}
		}
	}

	res := &Result{Pairs: map[schema.MatchPair]bool{}, MergeSims: mergeSims}
	for _, c := range clusters {
		if !c.alive {
			continue
		}
		ids := make([]string, len(c.members))
		for k, idx := range c.members {
			ids[k] = attrs[idx].ID
		}
		sort.Strings(ids)
		res.Clusters = append(res.Clusters, ids)
		for x := 0; x < len(ids); x++ {
			for y := x + 1; y < len(ids); y++ {
				res.Pairs[schema.NewMatchPair(ids[x], ids[y])] = true
			}
		}
	}
	sort.Slice(res.Clusters, func(i, j int) bool {
		return res.Clusters[i][0] < res.Clusters[j][0]
	})
	return res
}

// recordMerge writes one ledger decision for a cluster merge: the
// strongest supporting attribute pair across the two clusters (the pair
// whose Sim realizes a single-link merge; the best evidence pair under
// the other linkages), with its α·LabelSim + β·DomSim breakdown. Ties
// resolve to the lowest attribute indices, so the record is
// deterministic.
func (m *Matcher) recordMerge(ctx context.Context, attrs []*schema.Attribute, profiles []attrProfile, labelSims [][]float64, simMat [][]float64, membersA, membersB []int, clusterSim float64, order int) {
	bx, by, best := -1, -1, -1.0
	for _, x := range membersA {
		for _, y := range membersB {
			if simMat[x][y] > best {
				bx, by, best = x, y, simMat[x][y]
			}
		}
	}
	if bx < 0 {
		return
	}
	if by < bx {
		bx, by = by, bx
	}
	ls := labelSims[profiles[bx].labelID][profiles[by].labelID]
	dsim := domSim(&profiles[bx], &profiles[by])
	m.ledger.RecordCtx(ctx, obs.Decision{
		Component: "matcher", Verdict: "merge",
		AttrID: attrs[bx].ID, OtherID: attrs[by].ID,
		Label: attrs[bx].Label,
		Score: clusterSim, Threshold: m.cfg.Threshold,
		LabelSim: ls, DomSim: dsim,
		MergeOrder: order,
		Count:      len(membersA) + len(membersB),
		Detail: fmt.Sprintf("strongest pair %q~%q: %.3f = %.1f·%.3f + %.1f·%.3f",
			attrs[bx].Label, attrs[by].Label, best, m.cfg.Alpha, ls, m.cfg.Beta, dsim),
	})
}
