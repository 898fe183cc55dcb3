package sim

import (
	"bytes"
	"sync"
	"unicode/utf8"
)

// editScratch holds the reusable buffers for one edit-distance
// computation: the two folded strings, their rune decodings, and the
// two DP rows. Pooling them makes EditSim allocation-free in the
// steady state; the instance-borrowing O(n²) similarity loop is the
// single largest allocation site without it.
type editScratch struct {
	fa, fb []byte
	ra, rb []rune
	prev   []int
	cur    []int
}

var editPool = sync.Pool{New: func() any { return new(editScratch) }}

// EditSim is 1 − normalized Levenshtein distance between the folded
// strings; 1.0 means identical.
func EditSim(a, b string) float64 {
	sc := editPool.Get().(*editScratch)
	v := sc.editSim(a, b)
	editPool.Put(sc)
	return v
}

func (sc *editScratch) editSim(a, b string) float64 {
	sc.fa = foldAppend(sc.fa[:0], a)
	sc.fb = foldAppend(sc.fb[:0], b)
	if bytes.Equal(sc.fa, sc.fb) {
		return 1
	}
	maxLen := len(sc.fa)
	if len(sc.fb) > maxLen {
		maxLen = len(sc.fb)
	}
	// maxLen > 0 here: equal strings (including both empty) returned 1.
	return 1 - float64(sc.levenshtein(sc.fa, sc.fb, -1))/float64(maxLen)
}

// EditSimAtLeast reports whether EditSim(a, b) >= t, computing exactly
// the same comparison while skipping most of the work for clearly
// dissimilar pairs:
//
//   - The Levenshtein distance is at least the difference in rune
//     counts, so a pair whose length difference alone pushes the
//     similarity below t is rejected without running the DP.
//   - The DP aborts as soon as a full row exceeds the largest distance
//     still admitting similarity >= t (row minima never decrease).
//
// Both cuts are exact: EditSim = 1 − d/maxLen is strictly monotone
// decreasing in the integer d (the distances and lengths involved are
// far below 2^53, so the conversions and the division by the positive
// maxLen preserve order), which makes "similarity of a lower bound on
// d is below t" imply "similarity of d is below t".
func EditSimAtLeast(a, b string, t float64) bool {
	sc := editPool.Get().(*editScratch)
	ok := sc.editSimAtLeast(a, b, t)
	editPool.Put(sc)
	return ok
}

func (sc *editScratch) editSimAtLeast(a, b string, t float64) bool {
	sc.fa = foldAppend(sc.fa[:0], a)
	sc.fb = foldAppend(sc.fb[:0], b)
	return sc.foldedSimAtLeast(sc.fa, utf8.RuneCount(sc.fa), sc.fb, utf8.RuneCount(sc.fb), t)
}

// foldedSimAtLeast is the body of editSimAtLeast over already-folded
// values with known rune counts. FoldedList callers precompute the
// counts once per value, turning the length cut into O(1) per pair.
func (sc *editScratch) foldedSimAtLeast(fa []byte, la int, fb []byte, lb int, t float64) bool {
	if bytes.Equal(fa, fb) {
		return 1 >= t
	}
	maxLen := len(fa)
	if len(fb) > maxLen {
		maxLen = len(fb)
	}
	dmax := EditBudget(maxLen, t)
	if dmax <= 0 {
		// No distance admits similarity >= t, or only distance 0 does
		// and the values differ.
		return false
	}

	// Length lower bound. Rune counts, not byte lengths: for non-ASCII
	// the byte-length difference can exceed the rune-level distance.
	diff := la - lb
	if diff < 0 {
		diff = -diff
	}
	if diff > dmax {
		return false
	}

	return sc.levenshtein(fa, fb, dmax) <= dmax
}

// EditBudget returns the largest edit distance d in [0, maxLen] with
// 1 − d/maxLen >= t — the distance budget EditSimAtLeast grants a pair
// whose longer folded value is maxLen bytes — or -1 when no distance
// qualifies (maxLen 0, or t > 1). It evaluates the similarity exactly
// as EditSim does, in float64, starting from the float estimate and
// nudging until exact, so a caller that derives a length window from
// the budget can never drift from the threshold the comparison applies.
func EditBudget(maxLen int, t float64) int {
	m := float64(maxLen)
	dmax := int(m * (1 - t))
	if dmax < 0 {
		dmax = 0
	}
	if dmax > maxLen {
		dmax = maxLen
	}
	for dmax < maxLen && 1-float64(dmax+1)/m >= t {
		dmax++
	}
	for dmax > 0 && 1-float64(dmax)/m < t {
		dmax--
	}
	if !(1-float64(dmax)/m >= t) {
		return -1
	}
	return dmax
}

// levenshtein computes the rune-level edit distance between two folded
// values. If dmax >= 0 and every entry of some DP row exceeds dmax,
// it returns dmax+1 immediately (row minima never decrease, so the
// true distance is > dmax).
func (sc *editScratch) levenshtein(fa, fb []byte, dmax int) int {
	if isASCII(fa) && isASCII(fb) {
		return levRows(sc, len(fa), len(fb), func(i, j int) bool {
			return fa[i] == fb[j]
		}, dmax)
	}
	sc.ra = appendRunes(sc.ra[:0], fa)
	sc.rb = appendRunes(sc.rb[:0], fb)
	return levRows(sc, len(sc.ra), len(sc.rb), func(i, j int) bool {
		return sc.ra[i] == sc.rb[j]
	}, dmax)
}

func appendRunes(dst []rune, b []byte) []rune {
	for i := 0; i < len(b); {
		r, w := utf8.DecodeRune(b[i:])
		dst = append(dst, r)
		i += w
	}
	return dst
}

// levRows runs the two-row Levenshtein DP of size la×lb using the
// scratch rows, with eq(i, j) comparing the i-th and j-th symbols.
func levRows(sc *editScratch, la, lb int, eq func(i, j int) bool, dmax int) int {
	if cap(sc.prev) < lb+1 {
		sc.prev = make([]int, lb+1)
		sc.cur = make([]int, lb+1)
	}
	prev, cur := sc.prev[:lb+1], sc.cur[:lb+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := i
		for j := 1; j <= lb; j++ {
			cost := 1
			if eq(i-1, j-1) {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if dmax >= 0 && rowMin > dmax {
			return dmax + 1
		}
		prev, cur = cur, prev
	}
	sc.prev, sc.cur = prev, cur // keep ownership consistent after swaps
	return prev[lb]
}
