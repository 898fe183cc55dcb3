package surfaceweb

// The engine's storage: CSR-style flat arrays — per-term posting spans
// into one contiguous document array, per-entry position spans into
// one contiguous position array, per-document token/text/title spans
// into contiguous blobs. Every array is a plain []uint32/[]uint64 or
// string, and a built engine serves from the same arrays it was
// tokenized into (Engine.Index).

import (
	"cmp"
	"slices"

	"webiq/internal/nlp"
)

// FrozenData is the flattened form of a frozen index: the raw arrays a
// FrozenIndex serves from.
//
// Layout invariants (the read path indexes by them unchecked):
//
//	TermOff[t]..TermOff[t+1]        entries of term t in PostDoc (docs ascending)
//	PostPosOff[e]..PostPosOff[e+1]  token positions of entry e in Positions
//	DocTokOff[d]..DocTokOff[d+1]    tokens of document d in TokTerm/TokStart/TokEnd
//	TextOff[d]..TextOff[d+1]        text of document d in TextBlob
//	TitleOff[d]..TitleOff[d+1]      title of document d in TitleBlob
//
// Token start/end are byte offsets into the document's own text (not
// the blob).
type FrozenData struct {
	TermOff    []uint64
	PostDoc    []uint32
	PostPosOff []uint64
	Positions  []uint32

	DocTokOff []uint64
	TokTerm   []uint32
	TokStart  []uint32
	TokEnd    []uint32

	TextOff  []uint64
	TextBlob string

	TitleOff  []uint64
	TitleBlob string
}

// FrozenIndex is a read-only index over FrozenData arrays, built by
// Engine.Index.
type FrozenIndex struct {
	terms   *nlp.TermTable
	d       FrozenData
	numDocs int
}

// buildPostings fills d's posting arrays (TermOff, PostDoc, PostPosOff,
// Positions) from its token arrays by a two-pass counting sort over the
// v terms: the first pass counts each term's documents and positions,
// the second drops every token into its term's slot. Walking documents
// and their tokens in order leaves each term's documents ascending and
// each document's positions ascending, with no maps and no sorting.
func (d *FrozenData) buildPostings(v int) {
	n := len(d.DocTokOff) - 1
	termOff := make([]uint64, v+1) // entries per term, then their offsets
	posOff := make([]uint64, v+1)  // positions per term, then their offsets
	last := make([]int32, v)       // last document counted per term
	for t := range last {
		last[t] = -1
	}
	for doc := 0; doc < n; doc++ {
		for _, t := range d.TokTerm[d.DocTokOff[doc]:d.DocTokOff[doc+1]] {
			posOff[t+1]++
			if last[t] != int32(doc) {
				last[t] = int32(doc)
				termOff[t+1]++
			}
		}
	}
	for t := 0; t < v; t++ {
		termOff[t+1] += termOff[t]
		posOff[t+1] += posOff[t]
	}
	d.TermOff = termOff
	d.PostDoc = make([]uint32, termOff[v])
	d.PostPosOff = make([]uint64, termOff[v]+1)
	d.Positions = make([]uint32, posOff[v])
	// Per-term write cursors: the next posting entry and position.
	entAt, posAt := slices.Clone(termOff[:v]), slices.Clone(posOff[:v])
	for doc := 0; doc < n; doc++ {
		base := d.DocTokOff[doc]
		for k, t := range d.TokTerm[base:d.DocTokOff[doc+1]] {
			if e := entAt[t]; e == termOff[t] || d.PostDoc[e-1] != uint32(doc) {
				d.PostDoc[e] = uint32(doc)
				d.PostPosOff[e] = posAt[t]
				entAt[t]++
			}
			d.Positions[posAt[t]] = uint32(k)
			posAt[t]++
		}
	}
	d.PostPosOff[termOff[v]] = posOff[v]
}

// termRange returns the posting-entry span of a term. Unknown terms —
// nlp.NoTerm, the ID of every word the corpus lacks — get the empty
// span, which every caller treats as "matches nothing".
func (f *FrozenIndex) termRange(term uint32) termSpan {
	if uint64(term) >= uint64(len(f.d.TermOff)-1) {
		return termSpan{}
	}
	return termSpan{lo: f.d.TermOff[term], hi: f.d.TermOff[term+1]}
}

// docCount returns how many documents contain the term.
func (f *FrozenIndex) docCount(term uint32) int {
	s := f.termRange(term)
	return int(s.hi - s.lo)
}

// posCount returns how many positions a posting span holds in all: the
// term's corpus frequency.
func (f *FrozenIndex) posCount(s termSpan) uint64 {
	return f.d.PostPosOff[s.hi] - f.d.PostPosOff[s.lo]
}

// seek moves a posting span's lower bound forward, as a cursor, to the
// first entry whose document is at least doc, and reports whether that
// entry is doc's. It gallops from where the cursor stands — doubling
// steps, then a binary search inside the last one — so a walk over
// ascending documents costs the log of each gap, not of the span.
func (f *FrozenIndex) seek(s *termSpan, doc uint32) bool {
	post := f.d.PostDoc
	if s.lo < s.hi && post[s.lo] < doc {
		// Invariant: post[lo] < doc, and hi == s.hi or post[hi] >= doc.
		lo, hi := s.lo, s.hi
		for step := uint64(1); lo+step < hi; step *= 2 {
			if post[lo+step] >= doc {
				hi = lo + step
				break
			}
			lo += step
		}
		for lo+1 < hi {
			if mid := lo + (hi-lo)/2; post[mid] < doc {
				lo = mid
			} else {
				hi = mid
			}
		}
		s.lo = hi
	}
	return s.lo < s.hi && post[s.lo] == doc
}

// findIn returns a document's entry in a term's posting span.
func (f *FrozenIndex) findIn(term uint32, doc int) (uint64, bool) {
	s := f.termRange(term)
	ok := f.seek(&s, uint32(doc))
	return s.lo, ok
}

// posSpan returns the token positions of posting entry e.
func (f *FrozenIndex) posSpan(e uint64) []uint32 {
	return f.d.Positions[f.d.PostPosOff[e]:f.d.PostPosOff[e+1]]
}

// docTokens returns the token span of a document: base index into the
// token arrays and token count.
func (f *FrozenIndex) docTokens(doc int) (base, count uint64) {
	base = f.d.DocTokOff[doc]
	return base, f.d.DocTokOff[doc+1] - base
}

// phraseAt reports whether the whole phrase occurs at token start of
// the document whose tokens begin at base and number count.
func (f *FrozenIndex) phraseAt(base, count, start uint64, phrase []uint32) bool {
	if start+uint64(len(phrase)) > count {
		return false
	}
	for j, term := range phrase {
		if f.d.TokTerm[base+start+uint64(j)] != term {
			return false
		}
	}
	return true
}

// nextPhrase returns the index, from i on, of the next position of
// posting entry e (the phrase head's occurrences in doc) where the
// whole phrase occurs, or -1 when there is none.
func (f *FrozenIndex) nextPhrase(doc int, e uint64, phrase []uint32, i int) int {
	base, count := f.docTokens(doc)
	positions := f.posSpan(e)
	for ; i < len(positions); i++ {
		if f.phraseAt(base, count, uint64(positions[i]), phrase) {
			return i
		}
	}
	return -1
}

// match returns the documents matching the compiled query, collected
// into sc.ids in ascending order.
//
// A phrase query is driven from its pivot: the phrase term with the
// fewest corpus positions. Each pivot occurrence q fixes the phrase
// start q-j (j the pivot's offset in the phrase), so the walk visits
// the rare word's positions instead of every position of a common head
// like "the" or "such". A word the corpus lacks has no positions and
// matches nothing. A query without a phrase is driven from its rarest
// required term. Either way the other required terms are checked per
// driver document, before any phrase check, by forward cursors that
// gallop over their posting spans: driver documents ascend, so no
// cursor ever moves back.
func (f *FrozenIndex) match(cq CompiledQuery, sc *searchScratch) []int {
	spans := sc.spans[:0]
	sc.ids = sc.ids[:0]
	for _, term := range cq.Required {
		s := f.termRange(term)
		if s.lo == s.hi {
			sc.spans = spans
			return nil
		}
		spans = append(spans, s)
	}
	sc.spans = spans
	slices.SortFunc(spans, func(a, b termSpan) int { return cmp.Compare(a.hi-a.lo, b.hi-b.lo) })

	inAll := func(doc uint32, from int) bool {
		for i := from; i < len(spans); i++ {
			if !f.seek(&spans[i], doc) {
				return false
			}
		}
		return true
	}

	ids := sc.ids
	switch {
	case len(cq.Phrase) > 0:
		j, pivot := 0, f.termRange(cq.Phrase[0])
		for i, term := range cq.Phrase[1:] {
			if s := f.termRange(term); f.posCount(s) < f.posCount(pivot) {
				j, pivot = i+1, s
			}
		}
		for e := pivot.lo; e < pivot.hi; e++ {
			doc := f.d.PostDoc[e]
			if !inAll(doc, 0) {
				continue
			}
			base, count := f.docTokens(int(doc))
			for _, q := range f.posSpan(e) {
				if uint64(q) >= uint64(j) && f.phraseAt(base, count, uint64(q)-uint64(j), cq.Phrase) {
					ids = append(ids, int(doc))
					break
				}
			}
		}
	case len(spans) > 0:
		s := spans[0]
		for e := s.lo; e < s.hi; e++ {
			if doc := f.d.PostDoc[e]; inAll(doc, 1) {
				ids = append(ids, int(doc))
			}
		}
	}
	sc.ids = ids
	return ids
}

// relevance scores a matching document: phrase occurrences weigh 3,
// required-term occurrences weigh 1.
func (f *FrozenIndex) relevance(doc int, cq CompiledQuery) int {
	score := 0
	if len(cq.Phrase) > 0 {
		if e, ok := f.findIn(cq.Phrase[0], doc); ok {
			for i := f.nextPhrase(doc, e, cq.Phrase, 0); i >= 0; i = f.nextPhrase(doc, e, cq.Phrase, i+1) {
				score += 3
			}
		}
	}
	for _, term := range cq.Required {
		if e, ok := f.findIn(term, doc); ok {
			score += len(f.posSpan(e))
		}
	}
	return score
}

// snippet builds the text window around the first phrase match (or
// the document head when the query has no phrase), sliced straight out
// of the text blob: byte spans recorded at indexing time, no
// reconstruction or copying.
func (f *FrozenIndex) snippet(doc int, cq CompiledQuery, radius int) string {
	base, count := f.docTokens(doc)
	n := int(count)
	start, end := 0, min(n, 2*radius)
	if len(cq.Phrase) > 0 {
		if e, ok := f.findIn(cq.Phrase[0], doc); ok {
			if i := f.nextPhrase(doc, e, cq.Phrase, 0); i >= 0 {
				pos := int(f.posSpan(e)[i])
				start = max(0, pos-radius)
				end = min(n, pos+len(cq.Phrase)+radius)
			}
		}
	}
	if start >= end {
		return ""
	}
	text := f.d.TextBlob[f.d.TextOff[doc]:f.d.TextOff[doc+1]]
	return text[f.d.TokStart[base+uint64(start)]:f.d.TokEnd[base+uint64(end-1)]]
}

// count returns the number of documents matching cq.
func (f *FrozenIndex) count(cq *CompiledQuery) int {
	if len(cq.Phrase) == 1 && len(cq.Required) == 0 {
		// A one-word phrase matches exactly the documents in the term's
		// posting span; counting them needs no position walk.
		return f.docCount(cq.Phrase[0])
	}
	sc := searchPool.Get().(*searchScratch)
	n := len(f.match(*cq, sc))
	searchPool.Put(sc)
	return n
}
