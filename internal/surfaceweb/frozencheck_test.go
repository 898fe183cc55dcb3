package surfaceweb

// NewFrozenIndex is the structural validator of a frozen index: the
// tests run it over the indexes the builder produces (see
// TestEngineMatchesOracleGeneratedCorpus) and feed it deliberately
// malformed arrays. The accessors below expose an index's arrays to
// those checks.

import (
	"fmt"
	"sort"

	"webiq/internal/nlp"
)

// Terms returns the frozen term table the index was built against.
func (f *FrozenIndex) Terms() *nlp.TermTable { return f.terms }

// Data returns the underlying flat arrays (shared, not copied) for
// serialization.
func (f *FrozenIndex) Data() FrozenData { return f.d }

// NumDocs returns the number of documents in the frozen corpus.
func (f *FrozenIndex) NumDocs() int { return f.numDocs }

func frozenErr(format string, args ...any) error {
	return fmt.Errorf("surfaceweb: frozen index: "+format, args...)
}

// checkOffsets validates one offset table: n+1 entries spanning a
// backing array of length total, starting at 0, non-decreasing.
func checkOffsets(name string, off []uint64, n int, total int) error {
	if len(off) != n+1 {
		return frozenErr("%s has %d offsets, want %d", name, len(off), n+1)
	}
	if off[0] != 0 {
		return frozenErr("%s starts at %d, want 0", name, off[0])
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			return frozenErr("%s not monotonic at %d", name, i)
		}
	}
	if off[n] != uint64(total) {
		return frozenErr("%s ends at %d, want backing length %d", name, off[n], total)
	}
	return nil
}

// NewFrozenIndex validates d against terms and wraps it. All structural
// invariants the lock-free read path indexes by are checked here, so a
// malformed or truncated flattening is refused with an error rather
// than panicking later under a query.
func NewFrozenIndex(terms *nlp.TermTable, d FrozenData) (*FrozenIndex, error) {
	if terms == nil || !terms.Frozen() {
		return nil, frozenErr("term table must be frozen")
	}
	if len(d.TermOff) == 0 {
		return nil, frozenErr("empty term offset table")
	}
	v := len(d.TermOff) - 1
	if v != terms.Len() {
		return nil, frozenErr("%d posting spans, want one per term (%d)", v, terms.Len())
	}
	if err := checkOffsets("term offsets", d.TermOff, v, len(d.PostDoc)); err != nil {
		return nil, err
	}
	if len(d.PostFreq) != len(d.PostDoc) {
		return nil, frozenErr("%d term frequencies for %d posting entries", len(d.PostFreq), len(d.PostDoc))
	}
	if len(d.TextOff) == 0 {
		return nil, frozenErr("empty text offset table")
	}
	n := len(d.TextOff) - 1
	if err := checkOffsets("text offsets", d.TextOff, n, len(d.TextBlob)); err != nil {
		return nil, err
	}
	if err := checkOffsets("title offsets", d.TitleOff, n, len(d.TitleBlob)); err != nil {
		return nil, err
	}
	if len(d.TokStart) != len(d.TokTerm) || len(d.TokEnd) != len(d.TokTerm) {
		return nil, frozenErr("token arrays disagree: %d terms, %d starts, %d ends",
			len(d.TokTerm), len(d.TokStart), len(d.TokEnd))
	}
	if err := checkOffsets("token offsets", d.DocTokOff, n, len(d.TokTerm)); err != nil {
		return nil, err
	}
	// DocAt must name the document of every stride's first token:
	// docOf searches forward from it.
	if want := (len(d.TokTerm) + 1<<docAtShift - 1) >> docAtShift; len(d.DocAt) != want {
		return nil, frozenErr("%d document samples, want %d", len(d.DocAt), want)
	}
	for k, doc := range d.DocAt {
		if g := uint64(k) << docAtShift; uint64(doc) >= uint64(n) || g < d.DocTokOff[doc] || g >= d.DocTokOff[doc+1] {
			return nil, frozenErr("document sample %d names document %d, which does not hold token %d", k, doc, g)
		}
	}
	// Token byte spans must be ordered and inside their document's text:
	// the snippet path slices text[TokStart[a]:TokEnd[b]] for a <= b.
	for doc := 0; doc < n; doc++ {
		textLen := d.TextOff[doc+1] - d.TextOff[doc]
		prevEnd := uint32(0)
		for k := d.DocTokOff[doc]; k < d.DocTokOff[doc+1]; k++ {
			s, e := d.TokStart[k], d.TokEnd[k]
			if s < prevEnd || e < s || uint64(e) > textLen {
				return nil, frozenErr("document %d token %d span [%d,%d) outside text of %d bytes",
					doc, k-d.DocTokOff[doc], s, e, textLen)
			}
			prevEnd = e
		}
	}
	// Posting docs must be in range and strictly ascending per term —
	// the read path binary-searches them and treats doc transitions as
	// distinct-document boundaries.
	for t := 0; t < v; t++ {
		lo, hi := d.TermOff[t], d.TermOff[t+1]
		for e := lo; e < hi; e++ {
			doc := d.PostDoc[e]
			if uint64(doc) >= uint64(n) {
				return nil, frozenErr("term %d posts document %d, corpus has %d", t, doc, n)
			}
			if e > lo && doc <= d.PostDoc[e-1] {
				return nil, frozenErr("term %d posting documents not ascending at entry %d", t, e-lo)
			}
		}
	}
	// Every entry counts its term's occurrences in its document at least
	// once, and the counts add up to the corpus.
	freq := uint64(0)
	for e, c := range d.PostFreq {
		if c == 0 {
			return nil, frozenErr("posting entry %d counts no occurrence", e)
		}
		freq += uint64(c)
	}
	if freq != uint64(len(d.TokTerm)) {
		return nil, frozenErr("term frequencies add up to %d, corpus has %d tokens", freq, len(d.TokTerm))
	}
	if err := checkPairs(d, v, n); err != nil {
		return nil, err
	}
	return &FrozenIndex{terms: terms, d: d, numDocs: n}, nil
}

// checkPairs validates the pair index: each first term's pairs have
// ascending, known second terms; each pair's occurrences ascend, are
// that pair and stay inside one document, and its document count is
// right; and there are exactly as many occurrences as the documents
// hold adjacent pairs, so (occurrences being distinct) every adjacent
// pair inside a document is indexed once.
func checkPairs(d FrozenData, v, n int) error {
	if err := checkOffsets("pair offsets", d.PairOff, v, len(d.PairNext)); err != nil {
		return err
	}
	if len(d.PairDocs) != len(d.PairNext) {
		return frozenErr("%d pair document counts for %d pairs", len(d.PairDocs), len(d.PairNext))
	}
	if err := checkOffsets("pair occurrence offsets", d.PairOccOff, len(d.PairNext), len(d.PairTok)); err != nil {
		return err
	}
	adjacent := 0
	for doc := 0; doc < n; doc++ {
		if k := int(d.DocTokOff[doc+1] - d.DocTokOff[doc]); k > 1 {
			adjacent += k - 1
		}
	}
	if len(d.PairTok) != adjacent {
		return frozenErr("%d pair occurrences, documents hold %d adjacent pairs", len(d.PairTok), adjacent)
	}
	for a := 0; a < v; a++ {
		for p := d.PairOff[a]; p < d.PairOff[a+1]; p++ {
			if b := d.PairNext[p]; uint64(b) >= uint64(v) || (p > d.PairOff[a] && b <= d.PairNext[p-1]) {
				return frozenErr("pairs of term %d not ascending at pair %d", a, p)
			}
		}
	}
	for a := 0; a < v; a++ {
		for p := d.PairOff[a]; p < d.PairOff[a+1]; p++ {
			b := d.PairNext[p]
			lo, hi := d.PairOccOff[p], d.PairOccOff[p+1]
			if lo == hi {
				return frozenErr("pair %d has no occurrences", p)
			}
			docs, last := uint32(0), -1
			for i := lo; i < hi; i++ {
				g := uint64(d.PairTok[i])
				if i > lo && g <= uint64(d.PairTok[i-1]) {
					return frozenErr("occurrences of pair %d not ascending at %d", p, i-lo)
				}
				if g+1 >= uint64(len(d.TokTerm)) {
					return frozenErr("pair %d occurs at token %d, corpus has %d", p, g, len(d.TokTerm))
				}
				doc := sort.Search(n, func(k int) bool { return d.DocTokOff[k+1] > g })
				if g+1 >= d.DocTokOff[doc+1] {
					return frozenErr("pair %d occurrence at token %d spans a document boundary", p, g)
				}
				if d.TokTerm[g] != uint32(a) || d.TokTerm[g+1] != b {
					return frozenErr("pair %d occurrence at token %d is another pair", p, g)
				}
				if doc != last {
					docs, last = docs+1, doc
				}
			}
			if d.PairDocs[p] != docs {
				return frozenErr("pair %d counts %d documents, occurs in %d", p, d.PairDocs[p], docs)
			}
		}
	}
	return nil
}

// loadedEngine wraps an index in an engine that is frozen from the
// start: it serves every read from the index's arrays, and Add panics.
func loadedEngine(fi *FrozenIndex) *Engine {
	e := NewEngine()
	e.terms = fi.terms
	e.idx.Store(fi)
	return e
}
