package webiq

import (
	"bytes"
	"slices"
	"sort"

	"webiq/internal/schema"
	"webiq/internal/sim"
)

// nearDupSim is the edit similarity at which two values, one from each
// of two domains, count as "very similar" (Section 5, case 2).
const nearDupSim = 0.9

// donorIndex caches, for one acquisition run, everything borrow-donor
// selection derives from a single attribute: its label vector and, for
// its value list, the folded forms, two sort orders and the fold set.
// Donor selection compares every target attribute against every other
// interface's attributes; without the index each comparison re-derived
// both sides from scratch, although the target's side is the same for
// every candidate and the candidate's side the same for every target.
//
// Attributes only grow during a run, and only by addAcquired appending
// to Acquired, so a value view is valid exactly while its value count
// is unchanged; a view whose count moved is rebuilt on its next use.
// That keeps the DESIGN §6.1 rule that donor selection sees the
// acquisitions of every attribute processed earlier in the run.
type donorIndex struct {
	attrs map[*schema.Attribute]*donorAttr
}

func newDonorIndex() *donorIndex {
	return &donorIndex{attrs: map[*schema.Attribute]*donorAttr{}}
}

// donorAttr is the index entry of one attribute.
type donorAttr struct {
	label sim.Vector // nil until first used
	// predef covers attr.Instances; all covers attr.AllInstances() and
	// is used only once the attribute has acquired values (until then
	// the two lists are the same and predef serves both).
	predef, all donorValues
}

// donorValues is the index of one value list.
type donorValues struct {
	n      int // values indexed; -1 until first built
	folded sim.FoldedList
	// ascii holds the appendFoldValue forms, for the distinct-fold
	// guard of the near-duplicate test.
	ascii asciiFoldList
	// byFold orders the values by folded bytes (the exact-match merge);
	// byRunes orders them by rune count (the near-duplicate window).
	byFold, byRunes []int32
	// allASCII: every folded value is ASCII, so its byte length (which
	// sets the edit budget) equals its rune count (which the window and
	// the length cut compare).
	allASCII bool
	set      map[string]bool // sim.FoldSet of the values, built on first use
}

func (ix *donorIndex) entry(attr *schema.Attribute) *donorAttr {
	e := ix.attrs[attr]
	if e == nil {
		e = &donorAttr{}
		e.predef.n, e.all.n = -1, -1
		ix.attrs[attr] = e
	}
	return e
}

// labelVector returns attr's label vector; Cosine of two is exactly
// sim.LabelSim of the labels.
func (ix *donorIndex) labelVector(attr *schema.Attribute) sim.Vector {
	e := ix.entry(attr)
	if e.label == nil {
		e.label = sim.LabelVector(attr.Label)
	}
	return e.label
}

// predefined returns the index of attr.Instances.
func (ix *donorIndex) predefined(attr *schema.Attribute) *donorValues {
	v := &ix.entry(attr).predef
	if v.n != len(attr.Instances) {
		v.build(attr.Instances)
	}
	return v
}

// values returns the index of attr.AllInstances().
func (ix *donorIndex) values(attr *schema.Attribute) *donorValues {
	if len(attr.Acquired) == 0 {
		return ix.predefined(attr)
	}
	v := &ix.entry(attr).all
	if v.n != len(attr.Instances)+len(attr.Acquired) {
		v.build(attr.AllInstances())
	}
	return v
}

// build indexes vs, reusing v's buffers.
func (v *donorValues) build(vs []string) {
	v.n = len(vs)
	v.folded.Reset(vs)
	v.ascii.reset(vs)
	v.byFold, v.byRunes = v.byFold[:0], v.byRunes[:0]
	v.allASCII = true
	for i := 0; i < v.n; i++ {
		v.byFold = append(v.byFold, int32(i))
		v.byRunes = append(v.byRunes, int32(i))
		if len(v.folded.At(i)) != v.folded.Runes(i) {
			v.allASCII = false
		}
	}
	slices.SortFunc(v.byFold, func(i, j int32) int {
		return bytes.Compare(v.folded.At(int(i)), v.folded.At(int(j)))
	})
	slices.SortFunc(v.byRunes, func(i, j int32) int {
		return v.folded.Runes(int(i)) - v.folded.Runes(int(j))
	})
	v.set = nil
}

// foldSet returns sim.FoldSet of the indexed values.
func (v *donorValues) foldSet() map[string]bool {
	if v.set == nil {
		v.set = make(map[string]bool, v.n)
		for i := 0; i < v.n; i++ {
			v.set[string(v.folded.At(i))] = true
		}
	}
	return v.set
}

// verySimilar reports whether X1's predefined values and cand's values
// (predefined and acquired) share at least minMatches very similar
// values: the Step-2 donor test.
func (ix *donorIndex) verySimilar(x1, cand *schema.Attribute, minMatches int) bool {
	return domainsVerySimilar(ix.predefined(x1), ix.values(cand), minMatches)
}

// domainsVerySimilar reports whether at least minMatches values are
// very similar across the two lists: the distinct folded values present
// in both, plus every value of a with a near-duplicate in b — edit
// similarity of at least nearDupSim whose ASCII-lowered forms differ.
func domainsVerySimilar(a, b *donorValues, minMatches int) bool {
	matches := sharedFolded(a, b)
	if matches >= minMatches {
		return true
	}
	if !a.allASCII || !b.allASCII {
		// The window compares rune counts, but the edit budget follows
		// byte length; only for ASCII lists are the two the same.
		for i := 0; i < a.n; i++ {
			if matches >= minMatches {
				return true
			}
			for j := 0; j < b.n; j++ {
				if nearDuplicate(a, i, b, j) {
					matches++
					break
				}
			}
		}
		return matches >= minMatches
	}
	// Both lists are ASCII: a value of length l can only be near a value
	// whose length lies in editLengthWindow(l); every pair outside it
	// fails the length cut of the edit comparison. Visiting a's values
	// by length lets each window be found once per distinct length.
	prev, start, hi := -1, 0, 0
	for _, i := range a.byRunes {
		if matches >= minMatches {
			return true
		}
		la := a.folded.Runes(int(i))
		if la != prev {
			prev = la
			var lo int
			lo, hi = editLengthWindow(la, nearDupSim)
			start = b.firstWithRunes(lo)
		}
		for _, j := range b.byRunes[start:] {
			if b.folded.Runes(int(j)) > hi {
				break
			}
			if nearDuplicate(a, int(i), b, int(j)) {
				matches++
				break
			}
		}
	}
	return matches >= minMatches
}

// nearDuplicate reports whether a's i-th value and b's j-th value are
// near-identical: edit similarity of at least nearDupSim while the
// ASCII-lowered forms differ (an exact fold match already counted).
func nearDuplicate(a *donorValues, i int, b *donorValues, j int) bool {
	return sim.EditSimAtLeastFolded(a.folded.At(i), a.folded.Runes(i), b.folded.At(j), b.folded.Runes(j), nearDupSim) &&
		!bytes.Equal(a.ascii.at(i), b.ascii.at(j))
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

// sharedFolded counts distinct folded values present in both lists by
// merging their byFold orders.
func sharedFolded(a, b *donorValues) int {
	n := 0
	for i, j := 0, 0; i < len(a.byFold) && j < len(b.byFold); {
		va, vb := a.folded.At(int(a.byFold[i])), b.folded.At(int(b.byFold[j]))
		switch c := bytes.Compare(va, vb); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			for i++; i < len(a.byFold) && bytes.Equal(a.folded.At(int(a.byFold[i])), va); i++ {
			}
			for j++; j < len(b.byFold) && bytes.Equal(b.folded.At(int(b.byFold[j])), va); j++ {
			}
		}
	}
	return n
}

// asciiFoldList is the appendFoldValue analogue of sim.FoldedList: the
// ASCII-lowered forms of a value list in one reusable arena.
type asciiFoldList struct {
	arena []byte
	offs  []int
}

func (fl *asciiFoldList) reset(vs []string) {
	fl.arena = fl.arena[:0]
	fl.offs = append(fl.offs[:0], 0)
	for _, v := range vs {
		fl.arena = appendFoldValue(fl.arena, v)
		fl.offs = append(fl.offs, len(fl.arena))
	}
}

func (fl *asciiFoldList) at(i int) []byte { return fl.arena[fl.offs[i]:fl.offs[i+1]] }
