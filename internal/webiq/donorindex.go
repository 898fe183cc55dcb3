package webiq

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"
	"sort"
	"unicode/utf8"

	"webiq/internal/schema"
	"webiq/internal/sim"
)

// nearDupSim is the edit similarity at which two values, one from each
// of two domains, count as "very similar" (Section 5, case 2).
const nearDupSim = 0.9

// nearDupTabled is the folded length below which the near-duplicate
// edit budget and length window come from a table; longer values
// compute them directly.
const nearDupTabled = 256

// nearDupBudgets[m] is sim.EditBudget(m, nearDupSim): the edit distance
// a pair whose longer folded value is m bytes may have and still be near
// duplicates. nearDupWindows[l] is editLengthWindow(l, nearDupSim).
var nearDupBudgets, nearDupWindows = nearDupTables()

func nearDupTables() (budgets [nearDupTabled]int32, windows [nearDupTabled][2]int32) {
	for l := range budgets {
		budgets[l] = int32(sim.EditBudget(l, nearDupSim))
		lo, hi := editLengthWindow(l, nearDupSim)
		windows[l] = [2]int32{int32(lo), int32(hi)}
	}
	return budgets, windows
}

func nearDupBudget(maxLen int) int {
	if maxLen < nearDupTabled {
		return int(nearDupBudgets[maxLen])
	}
	return sim.EditBudget(maxLen, nearDupSim)
}

func nearDupWindow(l int) (lo, hi int) {
	if l < nearDupTabled {
		return int(nearDupWindows[l][0]), int(nearDupWindows[l][1])
	}
	return editLengthWindow(l, nearDupSim)
}

// donorIndex caches, for one acquisition run, everything borrow-donor
// selection derives from a single attribute: its label vector and, for
// its value list, the folded forms, two sort orders and per-value
// hashes and signatures. Donor selection compares every target
// attribute against every other interface's attributes; without the
// index each comparison re-derived both sides from scratch, although
// the target's side is the same for every candidate and the
// candidate's side the same for every target. Labels repeat across
// interfaces, so the cosine of each pair of distinct labels is computed
// once per run.
//
// Attributes only grow during a run, and only by addAcquired appending
// to Acquired, so the values a view has indexed are always a prefix of
// the attribute's current values: a view whose count moved indexes the
// new values on its next use and merges them into its orders. That
// keeps the DESIGN §6.1 rule that donor selection sees the acquisitions
// of every attribute processed earlier in the run.
type donorIndex struct {
	attrs   map[*schema.Attribute]*donorAttr
	labels  map[string]int32   // distinct label → its position in vectors
	vectors []sim.Vector       // label vectors by label ID
	cosines map[uint64]float64 // Cosine by label-ID pair
	near    []bool             // domainsVerySimilar's marks, one per value of the target
}

func newDonorIndex() *donorIndex {
	return &donorIndex{
		attrs:   map[*schema.Attribute]*donorAttr{},
		labels:  map[string]int32{},
		cosines: map[uint64]float64{},
	}
}

// donorAttr is the index entry of one attribute.
type donorAttr struct {
	labelID int32 // -1 until first used
	// predef covers attr.Instances; all covers attr.AllInstances() and
	// is used only once the attribute has acquired values (until then
	// the two lists are the same and predef serves both).
	predef, all donorValues
}

// donorValues is the index of one value list.
type donorValues struct {
	n      int // values indexed
	folded sim.FoldedList
	// ascii holds the appendFoldValue forms, for the distinct-fold
	// guard of the near-duplicate test.
	ascii asciiFoldList
	// hash is each folded value's FNV-1a hash; sig its rune signature
	// (foldHashSig).
	hash, sig []uint64
	// byFold orders the values by (hash, folded bytes), the exact-match
	// merge; foldKeys holds the hash of each byFold entry, so the merge
	// compares integers. byRunes orders them by rune count (the
	// near-duplicate window).
	byFold, byRunes []int32
	foldKeys        []uint64
	distinct        int // distinct folded values
	// allASCII: every folded value is ASCII, so its byte length (which
	// sets the edit budget) equals its rune count (which the window and
	// the length cut compare).
	allASCII bool
	tmp      []int32 // extendSorted scratch
}

func (ix *donorIndex) entry(attr *schema.Attribute) *donorAttr {
	e := ix.attrs[attr]
	if e == nil {
		e = &donorAttr{labelID: -1}
		ix.attrs[attr] = e
	}
	return e
}

// labelSim returns sim.LabelSim of the labels with IDs ia and ib
// (labelID): the Cosine of their label vectors, computed once per pair
// of labels.
func (ix *donorIndex) labelSim(ia, ib int32) float64 {
	key := uint64(ia)<<32 | uint64(ib)
	s, ok := ix.cosines[key]
	if !ok {
		s = ix.vectors[ia].Cosine(ix.vectors[ib])
		ix.cosines[key] = s
	}
	return s
}

// labelID returns the ID of attr's label, which identifies its label
// vector.
func (ix *donorIndex) labelID(attr *schema.Attribute) int32 {
	e := ix.entry(attr)
	if e.labelID < 0 {
		id, ok := ix.labels[attr.Label]
		if !ok {
			id = int32(len(ix.vectors))
			ix.labels[attr.Label] = id
			ix.vectors = append(ix.vectors, sim.LabelVector(attr.Label))
		}
		e.labelID = id
	}
	return e.labelID
}

// predefined returns the index of attr.Instances.
func (ix *donorIndex) predefined(attr *schema.Attribute) *donorValues {
	v := &ix.entry(attr).predef
	v.sync(attr.Instances, nil)
	return v
}

// values returns the index of attr.AllInstances().
func (ix *donorIndex) values(attr *schema.Attribute) *donorValues {
	if len(attr.Acquired) == 0 {
		return ix.predefined(attr)
	}
	v := &ix.entry(attr).all
	v.sync(attr.Instances, attr.Acquired)
	return v
}

// sync brings the view up to the values first followed by rest, of
// which it has indexed a prefix: it indexes the values past that prefix
// and merges them into the orders. A list that shrank is indexed anew.
func (v *donorValues) sync(first, rest []string) {
	total := len(first) + len(rest)
	if v.n == total {
		return
	}
	if v.n > total {
		v.reset()
	}
	from := v.n
	if from < len(first) {
		v.add(first[from:])
		v.add(rest)
	} else {
		v.add(rest[from-len(first):])
	}
	v.byFold = extendSorted(v.byFold, from, v.n, &v.tmp, v.cmpFold)
	v.byRunes = extendSorted(v.byRunes, from, v.n, &v.tmp, func(x, y int32) int {
		return v.folded.Runes(int(x)) - v.folded.Runes(int(y))
	})
	v.foldKeys, v.distinct = v.foldKeys[:0], 0
	for k, i := range v.byFold {
		v.foldKeys = append(v.foldKeys, v.hash[i])
		if k == 0 || !v.sameFold(v.byFold[k-1], i) {
			v.distinct++
		}
	}
}

// reset empties the view, keeping its buffers.
func (v *donorValues) reset() {
	v.n = 0
	v.folded.Reset(nil)
	v.ascii.reset(nil)
	v.hash, v.sig = v.hash[:0], v.sig[:0]
	v.byFold, v.byRunes = v.byFold[:0], v.byRunes[:0]
}

// add indexes vs after the values already indexed, leaving the orders
// to the caller.
func (v *donorValues) add(vs []string) {
	if v.n == 0 {
		v.allASCII = true
	}
	v.folded.Append(vs)
	v.ascii.append(vs)
	v.hash = slices.Grow(v.hash, len(vs))
	v.sig = slices.Grow(v.sig, len(vs))
	for i := v.n; i < v.folded.Len(); i++ {
		f := v.folded.At(i)
		if len(f) != v.folded.Runes(i) {
			v.allASCII = false
		}
		h, sig := foldHashSig(f)
		v.hash = append(v.hash, h)
		v.sig = append(v.sig, sig)
	}
	v.n = v.folded.Len()
}

// cmpFold orders values by (hash, folded bytes).
func (v *donorValues) cmpFold(x, y int32) int {
	if c := cmp.Compare(v.hash[x], v.hash[y]); c != 0 {
		return c
	}
	return bytes.Compare(v.folded.At(int(x)), v.folded.At(int(y)))
}

// sameFold reports whether values x and y fold to the same bytes.
func (v *donorValues) sameFold(x, y int32) bool {
	return v.hash[x] == v.hash[y] && bytes.Equal(v.folded.At(int(x)), v.folded.At(int(y)))
}

// foldGroupEnd returns the end of the run of byFold entries, starting
// at k, that fold to the same bytes.
func (v *donorValues) foldGroupEnd(k int) int {
	end := k + 1
	for end < len(v.byFold) && v.sameFold(v.byFold[end], v.byFold[k]) {
		end++
	}
	return end
}

// extendSorted merges the positions [from, to) into order, which holds
// the positions [0, from) sorted by cmp, and returns the sorted result.
// Only the new positions are sorted; the merge runs from the back in
// place, with tmp as scratch for the new run.
func extendSorted(order []int32, from, to int, tmp *[]int32, cmp func(x, y int32) int) []int32 {
	t := (*tmp)[:0]
	for k := from; k < to; k++ {
		t = append(t, int32(k))
	}
	slices.SortFunc(t, cmp)
	i := len(order) - 1
	order = append(order, t...)
	for j, w := len(t)-1, len(order)-1; j >= 0; w-- {
		if i >= 0 && cmp(order[i], t[j]) > 0 {
			order[w] = order[i]
			i--
		} else {
			order[w] = t[j]
			j--
		}
	}
	*tmp = t
	return order
}

// foldHashSig returns the 64-bit FNV-1a hash of a folded value and its
// rune signature, which sets one of 64 bits for each distinct rune. One
// edit (inserting, deleting or substituting a rune) removes at most one
// rune from the value's rune set and adds at most one, so it flips at
// most two signature bits: two values whose signatures differ in more
// than 2d bits are more than d edits apart.
func foldHashSig(f []byte) (hash, sig uint64) {
	hash = 14695981039346656037
	for _, c := range f {
		hash ^= uint64(c)
		hash *= 1099511628211
	}
	for i := 0; i < len(f); {
		r, w := rune(f[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRune(f[i:])
		}
		sig |= 1 << sigBit(r)
		i += w
	}
	return hash, sig
}

// sigBit maps a rune to its signature bit. Folded ASCII holds no
// upper-case letter, so 'a'–'z' take the bits of 'A'–'Z' and every
// letter, digit and common punctuation mark gets a bit of its own;
// other runes are hashed.
func sigBit(r rune) uint {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return uint(r-' ') & 63
	}
	return uint(uint32(r)*2654435761) >> 26
}

// domainsVerySimilar reports whether at least minMatches values are
// very similar across the two lists: the distinct folded values present
// in both, plus every value of a with a near-duplicate in b — edit
// similarity of at least nearDupSim whose ASCII-lowered forms differ.
//
// The fold merge decides every pair of values that fold alike: their
// edit similarity is 1, so they are near-duplicates exactly when their
// ASCII-lowered forms differ. Every other pair folds differently, so its
// ASCII-lowered forms differ too (lowering ASCII letters and then
// folding is folding), and it is a near-duplicate exactly when the edit
// comparison passes; the edit budget, the length cut and the rune
// signatures reject almost all of those pairs before any DP runs.
func (ix *donorIndex) domainsVerySimilar(a, b *donorValues, minMatches int) bool {
	if cap(ix.near) < a.n {
		ix.near = make([]bool, a.n)
	}
	near := ix.near[:a.n]
	clear(near)
	shared, marked := sharedFolded(a, b, near)
	matches := shared + marked
	if matches >= minMatches {
		return true
	}
	if !a.allASCII || !b.allASCII {
		// The window compares rune counts, but the edit budget follows
		// byte length; only for ASCII lists are the two the same.
		for i := 0; i < a.n; i++ {
			if near[i] {
				continue
			}
			for j := 0; j < b.n; j++ {
				if nearEdit(a, i, b, j) {
					if matches++; matches >= minMatches {
						return true
					}
					break
				}
			}
		}
		return false
	}
	// Both lists are ASCII: a value of length l can only be near a value
	// whose length lies in its window, and only if the longest length
	// there has a nonzero edit budget. Visiting a's values by length lets
	// each window be found once per distinct length.
	prev, start, hi, empty := -1, 0, 0, false
	for _, i := range a.byRunes {
		if near[i] {
			continue
		}
		if la := a.folded.Runes(int(i)); la != prev {
			prev = la
			var lo int
			lo, hi = nearDupWindow(la)
			if empty = nearDupBudget(hi) <= 0; !empty {
				start = b.firstWithRunes(lo)
			}
		}
		if empty {
			continue
		}
		for _, j := range b.byRunes[start:] {
			if b.folded.Runes(int(j)) > hi {
				break
			}
			if nearEdit(a, int(i), b, int(j)) {
				if matches++; matches >= minMatches {
					return true
				}
				break
			}
		}
	}
	return false
}

// nearEdit reports whether a's i-th value and b's j-th value are
// near-duplicates by edit similarity, for a value of a not marked by
// the fold merge: a pair that folds alike then shares its ASCII-lowered
// form and is not a near-duplicate, and any other pair is one exactly
// when its edit similarity reaches nearDupSim. The budget, the length
// cut and the signature distance are exact lower-bound rejections of
// the same comparison.
func nearEdit(a *donorValues, i int, b *donorValues, j int) bool {
	fa, fb := a.folded.At(i), b.folded.At(j)
	d := nearDupBudget(max(len(fa), len(fb)))
	if d <= 0 {
		return false
	}
	la, lb := a.folded.Runes(i), b.folded.Runes(j)
	if la-lb > d || lb-la > d || bits.OnesCount64(a.sig[i]^b.sig[j]) > 2*d {
		return false
	}
	if a.hash[i] == b.hash[j] && bytes.Equal(fa, fb) {
		return false
	}
	return sim.EditSimAtLeastFolded(fa, la, fb, lb, nearDupSim)
}

// firstWithRunes returns the position in byRunes of the first value
// with at least n runes.
func (v *donorValues) firstWithRunes(n int) int {
	return sort.Search(len(v.byRunes), func(k int) bool { return v.folded.Runes(int(v.byRunes[k])) >= n })
}

// editLengthWindow returns the lengths [lo, hi] of the ASCII values that
// can have edit similarity >= t (0 < t <= 1) with an ASCII value of
// length l. A pair of lengths l and m passes the length cut exactly when
// |l−m| <= sim.EditBudget(max(l, m), t); shorter partners are bounded
// by l's own budget, longer ones by walking m up while m's budget still
// covers the difference (m − EditBudget(m) never decreases in m, so the
// walk ends at the window's top).
func editLengthWindow(l int, t float64) (lo, hi int) {
	lo = l - max(sim.EditBudget(l, t), 0)
	hi = l
	for hi+1-sim.EditBudget(hi+1, t) <= l {
		hi++
	}
	return lo, hi
}

// sharedFolded counts the distinct folded values present in both lists
// by merging their byFold orders. When near is non-nil it also marks
// each value of a that has a value in b folding alike but with a
// different ASCII-lowered form — a near-duplicate of edit similarity 1
// — and returns how many it marked.
func sharedFolded(a, b *donorValues, near []bool) (shared, marked int) {
	for i, j := 0, 0; i < len(a.byFold) && j < len(b.byFold); {
		if ka, kb := a.foldKeys[i], b.foldKeys[j]; ka != kb {
			if ka < kb {
				i++
			} else {
				j++
			}
			continue
		}
		x, y := a.byFold[i], b.byFold[j]
		if c := bytes.Compare(a.folded.At(int(x)), b.folded.At(int(y))); c != 0 {
			if c < 0 {
				i++
			} else {
				j++
			}
			continue
		}
		shared++
		ie, je := a.foldGroupEnd(i), b.foldGroupEnd(j)
		if near != nil {
			marked += markFoldNear(a, a.byFold[i:ie], b, b.byFold[j:je], near)
		}
		i, j = ie, je
	}
	return shared, marked
}

// markFoldNear marks the values xs of a that have a value among ys of
// b (all folding alike) with a different ASCII-lowered form, and
// returns how many it marked.
func markFoldNear(a *donorValues, xs []int32, b *donorValues, ys []int32, near []bool) int {
	s0 := b.ascii.at(int(ys[0]))
	mixed := false
	for _, y := range ys[1:] {
		if !bytes.Equal(b.ascii.at(int(y)), s0) {
			mixed = true
			break
		}
	}
	n := 0
	for _, x := range xs {
		if mixed || !bytes.Equal(a.ascii.at(int(x)), s0) {
			near[x] = true
			n++
		}
	}
	return n
}

// foldOverlap is sim.OverlapSets of the two lists' fold sets: the
// distinct folded values they share over the smaller list's distinct
// count, 0 if either is empty.
func foldOverlap(a, b *donorValues) float64 {
	if a.distinct == 0 || b.distinct == 0 {
		return 0
	}
	shared, _ := sharedFolded(a, b, nil)
	return float64(shared) / float64(min(a.distinct, b.distinct))
}

// asciiFoldList is the appendFoldValue analogue of sim.FoldedList: the
// ASCII-lowered forms of a value list in one reusable arena.
type asciiFoldList struct {
	arena []byte
	offs  []int
}

func (fl *asciiFoldList) reset(vs []string) {
	fl.arena = fl.arena[:0]
	fl.offs = fl.offs[:0]
	fl.append(vs)
}

func (fl *asciiFoldList) append(vs []string) {
	if len(fl.offs) == 0 {
		fl.offs = append(fl.offs, 0)
	}
	size := 0
	for _, v := range vs {
		size += len(v)
	}
	fl.arena = slices.Grow(fl.arena, size)
	fl.offs = slices.Grow(fl.offs, len(vs))
	for _, v := range vs {
		fl.arena = appendFoldValue(fl.arena, v)
		fl.offs = append(fl.offs, len(fl.arena))
	}
}

func (fl *asciiFoldList) at(i int) []byte { return fl.arena[fl.offs[i]:fl.offs[i+1]] }
