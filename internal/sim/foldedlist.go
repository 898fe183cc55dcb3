package sim

import "unicode/utf8"

// FoldedList stores the case-folded forms of a list of values — each
// fold(v) plus its rune count — in one reusable arena. Callers that
// compare values of one list against values of many others fold each
// list once instead of once per pair: borrow-donor selection keeps one
// FoldedList per attribute value list for a whole acquisition run and
// refolds it only when the attribute acquires values. The precomputed
// rune counts make the length-difference cut of EditSimAtLeastFolded
// O(1), and a value is ASCII exactly when its folded byte length equals
// its rune count (folding writes invalid bytes as the 3-byte U+FFFD).
type FoldedList struct {
	arena []byte
	offs  []int
	runes []int
}

// Reset replaces the list contents with the folded forms of vs,
// reusing the arena across calls.
func (fl *FoldedList) Reset(vs []string) {
	fl.arena = fl.arena[:0]
	fl.offs = append(fl.offs[:0], 0)
	fl.runes = fl.runes[:0]
	for _, v := range vs {
		n := len(fl.arena)
		fl.arena = foldAppend(fl.arena, v)
		fl.offs = append(fl.offs, len(fl.arena))
		fl.runes = append(fl.runes, utf8.RuneCount(fl.arena[n:]))
	}
}

// Len reports the number of values in the list.
func (fl *FoldedList) Len() int { return len(fl.runes) }

// At returns the folded form of the i-th value. The slice aliases the
// arena: it is valid until the next Reset and must not be mutated.
func (fl *FoldedList) At(i int) []byte { return fl.arena[fl.offs[i]:fl.offs[i+1]] }

// Runes returns the rune count of the i-th folded value.
func (fl *FoldedList) Runes(i int) int { return fl.runes[i] }

// EditSimAtLeastFolded is EditSimAtLeast over pre-folded values: it
// returns exactly EditSimAtLeast(a, b, t) when fa = fold(a) with rune
// count la and fb = fold(b) with rune count lb (as produced by
// FoldedList).
func EditSimAtLeastFolded(fa []byte, la int, fb []byte, lb int, t float64) bool {
	sc := editPool.Get().(*editScratch)
	ok := sc.foldedSimAtLeast(fa, la, fb, lb, t)
	editPool.Put(sc)
	return ok
}
