package main

import (
	"fmt"
	"sync"
	"time"

	"webiq/internal/obs"
	"webiq/internal/surfaceweb"
	iq "webiq/internal/webiq"
)

// callLog records every call the timing decorator sees: per-operation
// counts and busy time, plus each call's interval so a span's self time
// can subtract the engine time inside it.
type callLog struct {
	epoch time.Time

	mu           sync.Mutex
	searchCalls  int
	searchNs     int64
	hitsQueries  int
	hitsNs       int64
	batches      int
	batchQueries int
	calls        []interval
}

func newCallLog(epoch time.Time) *callLog { return &callLog{epoch: epoch} }

func (l *callLog) record(start time.Time, search bool, queries int, batch bool) {
	end := time.Now()
	iv := interval{int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch))}
	l.mu.Lock()
	defer l.mu.Unlock()
	if search {
		l.searchCalls++
		l.searchNs += iv.end - iv.start
	} else {
		l.hitsQueries += queries
		l.hitsNs += iv.end - iv.start
	}
	if batch {
		l.batches++
		l.batchQueries += queries
	}
	l.calls = append(l.calls, iv)
}

// since returns the calls recorded after the first n.
func (l *callLog) since(n int) []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]interval(nil), l.calls[n:]...)
}

func (l *callLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.calls)
}

// timedEngine is the benchmark's timing decorator. It implements both
// webiq.SearchEngine and webiq.BatchSearchEngine, so the validator keeps
// its batched path, and forwards every call unchanged.
type timedEngine struct {
	inner *surfaceweb.CachedEngine
	log   *callLog
}

// The validator keeps its batched path only for an engine that
// implements webiq.BatchSearchEngine.
var _ iq.BatchSearchEngine = (*timedEngine)(nil)

func (t *timedEngine) Search(query string, limit int) []surfaceweb.Snippet {
	start := time.Now()
	out := t.inner.Search(query, limit)
	t.log.record(start, true, 1, false)
	return out
}

func (t *timedEngine) NumHits(query string) int {
	start := time.Now()
	out := t.inner.NumHits(query)
	t.log.record(start, false, 1, false)
	return out
}

func (t *timedEngine) NumHitsBatch(queries []string) []int {
	start := time.Now()
	out := t.inner.NumHitsBatch(queries)
	t.log.record(start, false, len(queries), true)
	return out
}

// layerAcc sums per-layer costs over the traced builds of a run.
type layerAcc struct {
	builds int

	searchCalls, hitsQueries, batches, batchQueries int
	searchNs, hitsNs                                int64
	cacheHits, cacheMisses                          int
	engineQueries                                   int
	engineVirtual                                   time.Duration
	probes                                          int

	// busyNs sums span wall time by span name.
	busyNs                             map[string]int64
	acquireSelfNs, attrSurfaceSelfNs   int64
	attrSurfaceAccept, attrSurfaceSeen int
	donorsAccepted, donorsProbed       int

	// Surface sub-stages, from direct calls (surfaceStages).
	surfaceAttrs                             int
	extractSelfNs, outlierNs, validateSelfNs int64
	candidates, verified                     int
}

func newLayerAcc() *layerAcc { return &layerAcc{busyNs: map[string]int64{}} }

// addBuild folds one traced build into the totals: the decorator's call
// log, the spans the program's hooks and the benchmark emitted, and the
// build's decision ledger. The call log and the tracer share an epoch to
// within the few nanoseconds between their construction.
func (a *layerAcc) addBuild(log *callLog, spans []obs.SpanRecord, ledger *obs.Ledger) {
	a.builds++
	log.mu.Lock()
	a.searchCalls += log.searchCalls
	a.searchNs += log.searchNs
	a.hitsQueries += log.hitsQueries
	a.hitsNs += log.hitsNs
	a.batches += log.batches
	a.batchQueries += log.batchQueries
	engine := union(log.calls)
	log.mu.Unlock()

	children := map[string][]interval{}
	for _, r := range spans {
		a.busyNs[r.Name] += r.WallNS
		if r.ParentID != "" {
			children[r.ParentID] = append(children[r.ParentID], interval{r.StartNS, r.StartNS + r.WallNS})
		}
	}
	for _, r := range spans {
		start, end := r.StartNS, r.StartNS+r.WallNS
		switch r.Name {
		case "acquire-all":
			a.acquireSelfNs += r.WallNS - covered(union(children[r.SpanID]), start, end)
		case "attr-surface":
			a.attrSurfaceSelfNs += r.WallNS - covered(engine, start, end)
		}
	}

	for _, d := range ledger.Decisions() {
		switch {
		case d.Component == "attr-surface" && d.Value != "" && (d.Verdict == "accept" || d.Verdict == "reject"):
			a.attrSurfaceSeen++
			if d.Verdict == "accept" {
				a.attrSurfaceAccept++
			}
		case d.Component == "attr-deep" && d.Value == "":
			a.donorsProbed++
			if d.Verdict == "accept" {
				a.donorsAccepted++
			}
		}
	}
}

// metrics renders the per-layer values, each per traced build where the
// name says so, and a note giving the base of every ratio.
func (a *layerAcc) metrics(m map[string]float64, notes map[string]string) {
	if a.builds == 0 {
		return
	}
	per := func(n float64) float64 { return n / float64(a.builds) }
	perMs := func(ns int64) float64 { return per(float64(ns) / 1e6) }
	m["surfaceweb.search.calls"] = per(float64(a.searchCalls))
	m["surfaceweb.search.busy_ms"] = perMs(a.searchNs)
	m["surfaceweb.hits.queries"] = per(float64(a.hitsQueries))
	m["surfaceweb.hits.busy_ms"] = perMs(a.hitsNs)
	if a.batches > 0 {
		m["surfaceweb.hits.per_batch"] = float64(a.batchQueries) / float64(a.batches)
	}
	notes["surfaceweb.hits.per_batch"] = fmt.Sprintf("base: %d batches", a.batches)
	m["surfaceweb.cache.hit_pct"] = pct(float64(a.cacheHits), float64(a.cacheHits+a.cacheMisses))
	notes["surfaceweb.cache.hit_pct"] = fmt.Sprintf("base: %d lookups", a.cacheHits+a.cacheMisses)
	m["surfaceweb.engine.queries"] = per(float64(a.engineQueries))
	m["surfaceweb.engine.sim_min"] = per(a.engineVirtual.Minutes())

	if a.surfaceAttrs > 0 {
		m["webiq.surface.extract_self_ms"] = perMs(a.extractSelfNs)
		m["webiq.surface.outlier_ms"] = perMs(a.outlierNs)
		m["webiq.surface.validate_self_ms"] = perMs(a.validateSelfNs)
		m["webiq.surface.candidates"] = per(float64(a.candidates))
		m["webiq.surface.accept_pct"] = pct(float64(a.verified), float64(a.candidates))
	}
	notes["webiq.surface.accept_pct"] = fmt.Sprintf("base: %d candidates over %d attributes", a.candidates, a.surfaceAttrs)
	m["webiq.surface.busy_ms"] = perMs(a.busyNs["surface"])
	m["webiq.acquire.busy_ms"] = perMs(a.busyNs["acquire-all"])
	m["webiq.acquire.self_ms"] = perMs(a.acquireSelfNs)
	m["webiq.attrsurface.busy_ms"] = perMs(a.busyNs["attr-surface"])
	m["webiq.attrsurface.self_ms"] = perMs(a.attrSurfaceSelfNs)
	m["webiq.attrsurface.accept_pct"] = pct(float64(a.attrSurfaceAccept), float64(a.attrSurfaceSeen))
	notes["webiq.attrsurface.accept_pct"] = fmt.Sprintf("base: %d borrowed values scored", a.attrSurfaceSeen)
	m["webiq.attrdeep.busy_ms"] = perMs(a.busyNs["attr-deep"])
	m["webiq.attrdeep.probes"] = per(float64(a.probes))
	m["webiq.attrdeep.donor_accept_pct"] = pct(float64(a.donorsAccepted), float64(a.donorsProbed))
	notes["webiq.attrdeep.donor_accept_pct"] = fmt.Sprintf("base: %d donors probed", a.donorsProbed)
	m["matcher.match.busy_ms"] = perMs(a.busyNs["match"])
	m["unify.build.busy_ms"] = perMs(a.busyNs["unify"])
}
