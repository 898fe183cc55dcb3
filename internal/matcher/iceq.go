package matcher

import (
	"context"
	"runtime"
	"sort"
	"strconv"
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
	simMat := squareMatrix(n)
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
	// interfaces covered (a bitset over the dataset's interfaces, one
	// row of ifaces per cluster), and linkage similarities to other
	// clusters in cs (maintained with Lance–Williams updates).
	members := make([][]int, n)
	alive := make([]bool, n)
	ifcIdx := map[string]int{}
	for _, a := range attrs {
		if _, ok := ifcIdx[a.InterfaceID]; !ok {
			ifcIdx[a.InterfaceID] = len(ifcIdx)
		}
	}
	words := (len(ifcIdx) + 63) / 64
	ifaces := make([]uint64, n*words)
	ifaceSet := func(c int) []uint64 { return ifaces[c*words : (c+1)*words] }
	cs := squareMatrix(n)
	for i := range members {
		members[i] = []int{i}
		alive[i] = true
		b := ifcIdx[attrs[i].InterfaceID]
		ifaceSet(i)[b/64] |= 1 << (b % 64)
		copy(cs[i], simMat[i])
	}

	var mergeSims []float64
	conflict := func(a, b int) bool {
		sa, sb := ifaceSet(a), ifaceSet(b)
		for w := range sa {
			if sa[w]&sb[w] != 0 {
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
	//
	// So every live pair whose similarity exceeds the threshold and that
	// does not conflict has an entry carrying its current similarity. A
	// merge that leaves a pair's similarity unchanged pushes nothing: the
	// entry it would push is already in the heap, or the pair conflicted
	// before the merge and still does.
	var h pairHeap
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cs[i][j] > m.cfg.Threshold && !conflict(i, j) {
				h = append(h, pairEntry{sim: cs[i][j], i: int32(i), j: int32(j)})
			}
		}
	}
	h.init()

	var detail []byte
	for len(h) > 0 {
		e := h.pop()
		bi, bj, best := int(e.i), int(e.j), e.sim
		if !alive[bi] || !alive[bj] || cs[bi][bj] != best {
			continue
		}
		if conflict(bi, bj) {
			continue
		}
		if m.ledger != nil {
			detail = m.recordMerge(ctx, detail, attrs, profiles, labelSims, simMat,
				members[bi], members[bj], best, len(mergeSims)+1)
		}
		mergeSims = append(mergeSims, best)
		m.mMerges.Inc()
		// Merge bj into bi; update cluster similarities per the linkage
		// (Lance–Williams updates) and push the pairs whose similarity
		// changed.
		ni := float64(len(members[bi]))
		nj := float64(len(members[bj]))
		members[bi] = append(members[bi], members[bj]...)
		si, sj := ifaceSet(bi), ifaceSet(bj)
		for w := range si {
			si[w] |= sj[w]
		}
		alive[bj] = false
		for k := 0; k < n; k++ {
			if k == bi || k == bj || !alive[k] {
				continue
			}
			old := cs[bi][k]
			var v float64
			switch m.cfg.Linkage {
			case AverageLink:
				v = (ni*old + nj*cs[bj][k]) / (ni + nj)
			case CompleteLink:
				v = old
				if cs[bj][k] < v {
					v = cs[bj][k]
				}
			default: // SingleLink
				v = old
				if cs[bj][k] > v {
					v = cs[bj][k]
				}
			}
			cs[bi][k] = v
			cs[k][bi] = v
			if v != old && v > m.cfg.Threshold && !conflict(bi, k) {
				lo, hi := bi, k
				if k < bi {
					lo, hi = k, bi
				}
				h.push(pairEntry{sim: v, i: int32(lo), j: int32(hi)})
			}
		}
	}

	pairs := 0
	for c := range members {
		if alive[c] {
			pairs += len(members[c]) * (len(members[c]) - 1) / 2
		}
	}
	res := &Result{Pairs: make(map[schema.MatchPair]bool, pairs), MergeSims: mergeSims}
	for c := range members {
		if !alive[c] {
			continue
		}
		ids := make([]string, len(members[c]))
		for k, idx := range members[c] {
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
// deterministic. The Detail text is built in buf, which is returned for
// reuse.
func (m *Matcher) recordMerge(ctx context.Context, buf []byte, attrs []*schema.Attribute, profiles []attrProfile, labelSims [][]float64, simMat [][]float64, membersA, membersB []int, clusterSim float64, order int) []byte {
	bx, by, best := -1, -1, -1.0
	for _, x := range membersA {
		for _, y := range membersB {
			if simMat[x][y] > best {
				bx, by, best = x, y, simMat[x][y]
			}
		}
	}
	if bx < 0 {
		return buf
	}
	if by < bx {
		bx, by = by, bx
	}
	ls := labelSims[profiles[bx].labelID][profiles[by].labelID]
	dsim := domSim(&profiles[bx], &profiles[by])
	// The fmt form "strongest pair %q~%q: %.3f = %.1f·%.3f + %.1f·%.3f",
	// byte for byte: %q is strconv's quoting and %.Nf its 'f' format.
	buf = append(buf[:0], "strongest pair "...)
	buf = strconv.AppendQuote(buf, attrs[bx].Label)
	buf = append(buf, '~')
	buf = strconv.AppendQuote(buf, attrs[by].Label)
	buf = append(buf, ": "...)
	buf = strconv.AppendFloat(buf, best, 'f', 3, 64)
	buf = append(buf, " = "...)
	buf = strconv.AppendFloat(buf, m.cfg.Alpha, 'f', 1, 64)
	buf = append(buf, "·"...)
	buf = strconv.AppendFloat(buf, ls, 'f', 3, 64)
	buf = append(buf, " + "...)
	buf = strconv.AppendFloat(buf, m.cfg.Beta, 'f', 1, 64)
	buf = append(buf, "·"...)
	buf = strconv.AppendFloat(buf, dsim, 'f', 3, 64)
	m.ledger.RecordCtx(ctx, obs.Decision{
		Component: "matcher", Verdict: "merge",
		AttrID: attrs[bx].ID, OtherID: attrs[by].ID,
		Label: attrs[bx].Label,
		Score: clusterSim, Threshold: m.cfg.Threshold,
		LabelSim: ls, DomSim: dsim,
		MergeOrder: order,
		Count:      len(membersA) + len(membersB),
		Detail:     string(buf),
	})
	return buf
}

// squareMatrix returns n zeroed rows of n values over one backing
// array.
func squareMatrix(n int) [][]float64 {
	back := make([]float64, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return rows
}
