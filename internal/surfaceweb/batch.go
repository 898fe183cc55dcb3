package surfaceweb

// Batched hit counting.
//
// WebIQ's PMI validation issues bursts of structurally related phrase
// queries: for one attribute with validation phrases V1..Vm and
// candidates x1..xk, the joint queries are "Vi xj" for every pair, plus
// "Vi" and "xj" alone. Every query is answered by the index's one
// matcher, which drives a phrase from its rarest term (see
// FrozenIndex.match): "authors such as hemingway" walks the postings of
// "hemingway", never those of "authors" or "such". Sharing work across
// the burst would save nothing on top of that, so a batch is one
// charge per query followed by one count per query. The batch entry
// points exist for the cache front-end (cachebatch.go), which collapses
// a burst's misses into one inner call.

// BatchQuery is one query of a batched hit-count request: the compiled
// query to answer and the raw string billed to the virtual clock (the
// same pair NumHitsCompiled takes).
type BatchQuery struct {
	CQ      CompiledQuery
	Charged string
}

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

// NumHitsBatchCompiled answers many already-compiled queries: every
// query is charged first, in input order, then counted. Results are in
// input order and each equals what NumHitsCompiled would return for
// the same query.
func (e *Engine) NumHitsBatchCompiled(qs []BatchQuery) []int {
	fi := e.Index()
	out := make([]int, len(qs))
	for i := range qs {
		e.charge(qs[i].Charged)
	}
	for i := range qs {
		out[i] = fi.count(&qs[i].CQ)
	}
	return out
}
