package matcher

// pairEntry is a candidate cluster pair in the merge heap, keyed by the
// cluster-similarity value it was pushed with; a popped entry whose
// value no longer matches the live matrix is a stale duplicate.
type pairEntry struct {
	sim  float64
	i, j int32 // cluster indices, i < j
}

// before reports whether e pops before o: the order (sim desc, i asc,
// j asc) of a full best-pair rescan that accepts only strictly greater
// similarities.
func (e pairEntry) before(o pairEntry) bool {
	if e.sim != o.sim {
		return e.sim > o.sim
	}
	if e.i != o.i {
		return e.i < o.i
	}
	return e.j < o.j
}

// pairHeap is a max-heap of candidate pairs in before order. It is
// container/heap's algorithm over the concrete entry type, so a push or
// a pop boxes nothing and calls no interface method.
type pairHeap []pairEntry

// init establishes the heap order over the entries already in h.
func (h pairHeap) init() {
	n := len(h)
	for k := n/2 - 1; k >= 0; k-- {
		h.down(k, n)
	}
}

func (h *pairHeap) push(e pairEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the first entry; h must not be empty.
func (h *pairHeap) pop() pairEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

func (h pairHeap) up(k int) {
	for k > 0 {
		p := (k - 1) / 2
		if !h[k].before(h[p]) {
			break
		}
		h[p], h[k] = h[k], h[p]
		k = p
	}
}

func (h pairHeap) down(k, n int) {
	for {
		c := 2*k + 1
		if c >= n || c < 0 { // c < 0 after int overflow
			return
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[k]) {
			return
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
}
