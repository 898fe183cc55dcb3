package surfaceweb

// Batched hit counting with roll-up posting intersection.
//
// WebIQ's PMI validation issues bursts of structurally related phrase
// queries: for one attribute with validation phrases V1..Vm and
// candidates x1..xk, the joint queries are "Vi xj" for every pair, plus
// "Vi" and "xj" alone. Scalar NumHits re-walks the first term's posting
// list for every one of those queries — for a common head word like
// "authors" that is the whole corpus slice of the term, k·m times over.
//
// NumHitsBatch answers the whole burst in one pass. Queries are
// processed in phrase-lexicographic order while a stack of prefix match
// frames is maintained: frame d holds every (doc, start) where the
// first d+1 phrase terms match. Two queries sharing a phrase prefix
// share the frames for that prefix, so "authors such as hemingway" and
// "authors such as updike" each cost one filter step over the
// already-intersected "authors such as" frame instead of a fresh walk
// of the "authors" postings. All working memory comes from a pooled
// per-batch scratch, so steady-state batches allocate only the result
// slice.

import (
	"sort"
	"sync"
)

// BatchQuery is one query of a batched hit-count request: the compiled
// query to answer and the raw string billed to the virtual clock (the
// same pair NumHitsCompiled takes).
type BatchQuery struct {
	CQ      CompiledQuery
	Charged string
}

// tokenHit is one surviving phrase-prefix match: the document and the
// token index where the prefix starts.
type tokenHit struct {
	doc, pos int32
}

// batchScratch is the pooled working set of one NumHitsBatch call: the
// sort permutation and the prefix-frame stack. Frames keep their
// capacity across batches, so a steady stream of validation batches
// reuses the same backing arrays.
type batchScratch struct {
	order  []int
	frames [][]tokenHit
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// NumHitsBatch compiles and answers many queries in one engine pass,
// returning the hit count of each query in input order. Accounting is
// identical to issuing the queries one by one: every query is charged
// its deterministic latency against the raw string.
func (e *Engine) NumHitsBatch(queries []string) []int {
	qs := make([]BatchQuery, len(queries))
	for i, q := range queries {
		qs[i] = BatchQuery{CQ: e.Compile(q), Charged: q}
	}
	return e.NumHitsBatchCompiled(qs)
}

// NumHitsBatchCompiled answers many already-compiled queries in one
// pass, sharing phrase-prefix intersection work across the batch (see
// the package comment above). Results are in input order and each
// equals what NumHitsCompiled would return for the same query.
func (e *Engine) NumHitsBatchCompiled(qs []BatchQuery) []int {
	fi := e.Index()
	out := make([]int, len(qs))
	for i := range qs {
		e.charge(qs[i].Charged)
	}
	fi.numHitsBatch(qs, out)
	return out
}

// numHitsBatch answers a pre-charged batch; results land in out by
// input index.
func (f *FrozenIndex) numHitsBatch(qs []BatchQuery, out []int) {
	sc := batchPool.Get().(*batchScratch)
	order := batchOrder(sc, qs)

	var prev []uint32 // phrase whose prefixes the frames currently hold
	depth := 0        // number of valid frames
	for oi, qi := range order {
		cq := &qs[qi].CQ
		p := cq.Phrase
		if len(p) == 0 || len(p) == 1 && len(cq.Required) == 0 {
			// Phraseless queries need no frames, and a one-word phrase
			// is the term's posting-span size.
			out[qi] = f.count(cq)
			continue
		}
		// Reuse the frames of the longest common prefix with the
		// previous framed query, then extend term by term.
		common := 0
		for common < depth && common < len(p) && common < len(prev) && prev[common] == p[common] {
			common++
		}
		if common == 0 {
			// Isolated phrase: when the next query in phrase order does
			// not share this phrase's head term either, the frames built
			// here would never be reused, and frame 0 materializes every
			// position of the head term while the scalar walk
			// short-circuits per document at the first phrase match. Use
			// the scalar path and leave the frame stack untouched —
			// sorted order guarantees the next query shares nothing with
			// the still-cached prev (lcp(prev, next) = min(lcp(prev, p),
			// lcp(p, next)) = 0), so the stale frames are never reused.
			shared := false
			if oi+1 < len(order) {
				np := qs[order[oi+1]].CQ.Phrase
				shared = len(np) > 0 && np[0] == p[0]
			}
			if !shared {
				out[qi] = f.count(cq)
				continue
			}
		}
		for d := common; d < len(p); d++ {
			for len(sc.frames) <= d {
				sc.frames = append(sc.frames, nil)
			}
			if d == 0 {
				frame := sc.frames[0][:0]
				s := f.termRange(p[0])
				for e := s.lo; e < s.hi; e++ {
					doc := int32(f.d.PostDoc[e])
					for _, pos := range f.posSpan(e) {
						frame = append(frame, tokenHit{doc: doc, pos: int32(pos)})
					}
				}
				sc.frames[0] = frame
				continue
			}
			term := p[d]
			dst := sc.frames[d][:0]
			curDoc := int32(-1)
			var base, count uint64
			for _, h := range sc.frames[d-1] {
				if h.doc != curDoc {
					curDoc = h.doc
					base, count = f.docTokens(int(h.doc))
				}
				if at := uint64(h.pos) + uint64(d); at < count && f.d.TokTerm[base+at] == term {
					dst = append(dst, h)
				}
			}
			sc.frames[d] = dst
		}
		prev, depth = p, len(p)
		out[qi] = f.countFrame(sc.frames[len(p)-1], cq.Required)
	}
	batchPool.Put(sc)
}

// batchOrder fills sc.order with the batch's processing permutation:
// phrase-lexicographic order clusters shared prefixes so adjacent
// queries reuse the deepest common frame. The sort is stable in effect
// because ties are broken by input index.
func batchOrder(sc *batchScratch, qs []BatchQuery) []int {
	order := sc.order[:0]
	for i := range qs {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := qs[order[a]].CQ.Phrase, qs[order[b]].CQ.Phrase
		for i := 0; i < len(pa) && i < len(pb); i++ {
			if pa[i] != pb[i] {
				return pa[i] < pb[i]
			}
		}
		if len(pa) != len(pb) {
			return len(pa) < len(pb)
		}
		return order[a] < order[b]
	})
	sc.order = order
	return order
}

// countFrame counts the distinct documents of a fully-extended phrase
// frame that also carry every required term. Hits for one document are
// contiguous (the frame is built doc by doc and filters preserve
// order), so distinct documents are doc-value transitions.
func (f *FrozenIndex) countFrame(frame []tokenHit, required []uint32) int {
	if len(frame) == 0 {
		return 0
	}
	var spans []termSpan
	for _, term := range required {
		s := f.termRange(term)
		if s.lo == s.hi {
			return 0
		}
		spans = append(spans, s)
	}
	n := 0
	curDoc := int32(-1)
docs:
	for _, h := range frame {
		if h.doc == curDoc {
			continue
		}
		curDoc = h.doc
		for _, s := range spans {
			if _, ok := f.findIn(s, uint32(h.doc)); !ok {
				continue docs
			}
		}
		n++
	}
	return n
}
