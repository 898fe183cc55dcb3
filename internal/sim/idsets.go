package sim

import (
	"slices"
	"sync"

	"webiq/internal/nlp"
)

// foldBufPool holds the byte buffers used to fold values before
// interning them, so FoldSetIDs allocates nothing for already-interned
// values.
var foldBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// FoldSetIDs is FoldSet with interned values: the distinct case-folded
// values of vs as term IDs in tab, sorted ascending. Because interning
// is injective on the folded strings, OverlapIDSets over two FoldSetIDs
// (sharing one table) equals OverlapSets over the corresponding
// FoldSets. The matcher builds one set per attribute and compares all
// pairs; with sorted IDs each value is folded once and every
// comparison merges two integer slices.
func FoldSetIDs(vs []string, tab *nlp.TermTable) []uint32 {
	ids := make([]uint32, 0, len(vs))
	bp := foldBufPool.Get().(*[]byte)
	buf := *bp
	for _, v := range vs {
		buf = foldAppend(buf[:0], v)
		ids = append(ids, tab.InternBytes(buf))
	}
	*bp = buf
	foldBufPool.Put(bp)
	slices.Sort(ids)
	return slices.Compact(ids)
}

// OverlapIDSets is OverlapSets over interned value sets (FoldSetIDs):
// shared distinct values divided by the size of the smaller set, 0 if
// either is empty. The two sorted sets are merged.
func OverlapIDSets(a, b []uint32) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	shared := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	return float64(shared) / float64(min(len(a), len(b)))
}
