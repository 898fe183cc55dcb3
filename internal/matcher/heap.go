package matcher

// pairEntry is a candidate cluster pair in the merge heap, keyed by the
// cluster-similarity value it was pushed with; a popped entry whose
// value no longer matches the live matrix is a stale duplicate.
type pairEntry struct {
	sim  float64
	i, j int // cluster indices, i < j
}

// pairHeap is a max-heap of candidate pairs ordered (sim desc, i asc,
// j asc) — the selection order of a full best-pair rescan that accepts
// only strictly greater similarities.
type pairHeap []pairEntry

func (h pairHeap) Len() int { return len(h) }

func (h pairHeap) Less(a, b int) bool {
	if h[a].sim != h[b].sim {
		return h[a].sim > h[b].sim
	}
	if h[a].i != h[b].i {
		return h[a].i < h[b].i
	}
	return h[a].j < h[b].j
}

func (h pairHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }

func (h *pairHeap) Push(x any) { *h = append(*h, x.(pairEntry)) }

func (h *pairHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
