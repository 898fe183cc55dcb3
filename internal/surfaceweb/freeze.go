package surfaceweb

// The engine's storage: CSR-style flat arrays — per-term posting spans
// into one contiguous document array, per-term blocks of adjacent word
// pairs with their token occurrences, per-document token/text/title
// spans into contiguous blobs. Every array is a plain []uint32/[]uint64
// or string, and a built engine serves from the same arrays it was
// tokenized into (Engine.Index).

import (
	"cmp"
	"math"
	"slices"

	"webiq/internal/nlp"
)

// FrozenData is the flattened form of a frozen index: the raw arrays a
// FrozenIndex serves from.
//
// Layout invariants (the read path indexes by them unchecked):
//
//	TermOff[t]..TermOff[t+1]        entries of term t in PostDoc/PostFreq (docs ascending)
//	PostFreq[e]                     occurrences of entry e's term in its document (>= 1)
//	PairOff[a]..PairOff[a+1]        pairs with first term a in PairNext/PairDocs (second terms ascending)
//	PairOccOff[p]..PairOccOff[p+1]  occurrences of pair p in PairTok (ascending)
//	PairTok[i]                      global token index g with TokTerm[g], TokTerm[g+1] the pair,
//	                                both inside one document
//	PairDocs[p]                     documents pair p occurs in
//	DocTokOff[d]..DocTokOff[d+1]    tokens of document d in TokTerm/TokStart/TokEnd
//	DocAt[k]                        document holding token k<<docAtShift
//	TextOff[d]..TextOff[d+1]        text of document d in TextBlob
//	TitleOff[d]..TitleOff[d+1]      title of document d in TitleBlob
//
// Token start/end are byte offsets into the document's own text (not
// the blob). Global token indexes are uint32: an engine holds fewer
// than 2^32 tokens.
type FrozenData struct {
	TermOff  []uint64
	PostDoc  []uint32
	PostFreq []uint32

	PairOff    []uint64
	PairNext   []uint32
	PairDocs   []uint32
	PairOccOff []uint64
	PairTok    []uint32

	DocTokOff []uint64
	DocAt     []uint32
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

// build fills d's posting and pair arrays from its token arrays over a
// vocabulary of v terms.
func (d *FrozenData) build(v int) {
	if uint64(len(d.TokTerm)) > math.MaxUint32 {
		panic("surfaceweb: corpus exceeds 2^32 tokens")
	}
	d.buildPostings(v)
	d.buildDocAt()
	d.buildPairs(v)
}

// buildPostings fills d's posting arrays (TermOff, PostDoc, PostFreq)
// from its token arrays by a two-pass counting sort over the v terms:
// the first pass counts each term's documents, the second drops every
// token into its term's entry for the document. Walking documents in
// order leaves each term's documents ascending, with no maps and no
// sorting.
func (d *FrozenData) buildPostings(v int) {
	n := len(d.DocTokOff) - 1
	termOff := make([]uint64, v+1) // entries per term, then their offsets
	last := make([]int32, v)       // last document counted per term
	for t := range last {
		last[t] = -1
	}
	for doc := 0; doc < n; doc++ {
		for _, t := range d.TokTerm[d.DocTokOff[doc]:d.DocTokOff[doc+1]] {
			if last[t] != int32(doc) {
				last[t] = int32(doc)
				termOff[t+1]++
			}
		}
	}
	for t := 0; t < v; t++ {
		termOff[t+1] += termOff[t]
	}
	d.TermOff = termOff
	d.PostDoc = make([]uint32, termOff[v])
	d.PostFreq = make([]uint32, termOff[v])
	entAt := slices.Clone(termOff[:v]) // per-term write cursor: the next entry
	for doc := 0; doc < n; doc++ {
		for _, t := range d.TokTerm[d.DocTokOff[doc]:d.DocTokOff[doc+1]] {
			if e := entAt[t]; e == termOff[t] || d.PostDoc[e-1] != uint32(doc) {
				d.PostDoc[e] = uint32(doc)
				entAt[t]++
			}
			d.PostFreq[entAt[t]-1]++
		}
	}
}

// buildPairs fills d's pair arrays (PairOff, PairNext, PairDocs,
// PairOccOff, PairTok) with every adjacent token pair inside a
// document, by two stable counting sorts over the v terms: each pair's
// first token is bucketed by the pair's second term, walking tokens in
// order, then re-bucketed by its first term. That leaves each first
// term's block ordered by second term, and each pair's occurrences
// ascending, with no maps and no comparison sort. The one temporary
// the size of the corpus is the first sort's output.
func (d *FrozenData) buildPairs(v int) {
	n := len(d.DocTokOff) - 1
	byA := make([]uint64, v+1) // occurrences per first term, then their offsets
	byB := make([]uint64, v+1) // the same per second term
	for doc := 0; doc < n; doc++ {
		// Pairs start at a document's first token and end at its last:
		// none spans a document boundary.
		toks := d.TokTerm[d.DocTokOff[doc]:d.DocTokOff[doc+1]]
		for k := 1; k < len(toks); k++ {
			byA[toks[k-1]+1]++
			byB[toks[k]+1]++
		}
	}
	for t := 0; t < v; t++ {
		byA[t+1] += byA[t]
		byB[t+1] += byB[t]
	}
	bySecond := make([]uint32, byB[v])
	for doc := 0; doc < n; doc++ {
		for g := d.DocTokOff[doc] + 1; g < d.DocTokOff[doc+1]; g++ {
			b := d.TokTerm[g]
			bySecond[byB[b]] = uint32(g - 1)
			byB[b]++
		}
	}

	// The second sort walks the second terms in order, so each first
	// term meets its pairs in order of second term, and each pair's
	// occurrences in order: a pair starts where a first term meets a
	// new second term. Its runs are collected, with their document
	// counts, and placed once every first term's pair count is known.
	type run struct {
		a, b, docs uint32
		start      uint64 // first occurrence in PairTok
	}
	var runs []run
	// Per first term: its current run, that run's second term, and the
	// end of the document the run last counted.
	cur := make([]int, v)
	curB := make([]uint32, v)
	docEnd := make([]uint64, v)
	for a := range curB {
		curB[a] = nlp.NoTerm
	}
	pairOff := make([]uint64, v+1)
	d.PairTok = make([]uint32, len(bySecond))
	i := uint64(0)
	for b := uint32(0); b < uint32(v); b++ {
		for ; i < byB[b]; i++ { // byB[b] is now the end of b's bucket
			g := uint64(bySecond[i])
			a := d.TokTerm[g]
			if curB[a] != b {
				cur[a], curB[a], docEnd[a] = len(runs), b, 0
				runs = append(runs, run{a: a, b: b, start: byA[a]})
				pairOff[a+1]++
			}
			if g >= docEnd[a] {
				docEnd[a] = d.DocTokOff[d.docOf(g)+1]
				runs[cur[a]].docs++
			}
			d.PairTok[byA[a]] = uint32(g)
			byA[a]++
		}
	}
	for t := 0; t < v; t++ {
		pairOff[t+1] += pairOff[t]
	}
	d.PairOff = pairOff
	d.PairNext = make([]uint32, len(runs))
	d.PairDocs = make([]uint32, len(runs))
	d.PairOccOff = make([]uint64, len(runs)+1)
	next := slices.Clone(pairOff[:v]) // per first term: its next pair
	for _, r := range runs {
		p := next[r.a]
		next[r.a]++
		d.PairNext[p], d.PairDocs[p], d.PairOccOff[p] = r.b, r.docs, r.start
	}
	d.PairOccOff[len(runs)] = uint64(len(d.PairTok))
}

// gallop returns the first index in [lo, hi) whose value in the
// ascending array a is at least x, or hi when there is none. It
// gallops from lo — doubling steps, then a binary search inside the
// last one — so a cursor moving forward over ascending targets pays the
// log of each gap, not of the span.
func gallop[T uint32 | uint64](a []T, lo, hi uint64, x T) uint64 {
	if lo >= hi || a[lo] >= x {
		return lo
	}
	// Invariant: a[lo] < x, and hi is the end or a[hi] >= x.
	for step := uint64(1); lo+step < hi; step *= 2 {
		if a[lo+step] >= x {
			hi = lo + step
			break
		}
		lo += step
	}
	for lo+1 < hi {
		if mid := lo + (hi-lo)/2; a[mid] < x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// docAtShift sets DocAt's stride: one entry per 2^docAtShift tokens, a
// few documents' worth, so docOf's search starts next to its answer.
const docAtShift = 6

// buildDocAt fills DocAt from the document token offsets.
func (d *FrozenData) buildDocAt() {
	n := len(d.DocTokOff) - 1
	d.DocAt = make([]uint32, (uint64(len(d.TokTerm))+1<<docAtShift-1)>>docAtShift)
	for doc := 0; doc < n; doc++ {
		k := (d.DocTokOff[doc] + 1<<docAtShift - 1) >> docAtShift
		for ; k<<docAtShift < d.DocTokOff[doc+1]; k++ {
			d.DocAt[k] = uint32(doc)
		}
	}
}

// docOf returns the document holding global token g: from DocAt's
// document at or before g, forward over the document offsets.
func (d *FrozenData) docOf(g uint64) int {
	from := uint64(d.DocAt[g>>docAtShift])
	return int(gallop(d.DocTokOff, from+1, uint64(len(d.DocTokOff)), g+1)) - 1
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

// pairRange returns the index of the adjacent pair (a, b) — a's block
// of pairs, binary-searched for b — and its occurrence span in PairTok.
// A pair the corpus lacks, unknown words included, gets the empty span.
func (f *FrozenIndex) pairRange(a, b uint32) (uint64, termSpan) {
	if uint64(a) >= uint64(len(f.d.PairOff)-1) {
		return 0, termSpan{}
	}
	lo := f.d.PairOff[a]
	i, ok := slices.BinarySearch(f.d.PairNext[lo:f.d.PairOff[a+1]], b)
	if !ok {
		return 0, termSpan{}
	}
	p := lo + uint64(i)
	return p, termSpan{lo: f.d.PairOccOff[p], hi: f.d.PairOccOff[p+1]}
}

// seek moves a posting span's lower bound forward, as a cursor, to the
// first entry whose document is at least doc, and reports whether that
// entry is doc's.
func (f *FrozenIndex) seek(s *termSpan, doc uint32) bool {
	s.lo = gallop(f.d.PostDoc, s.lo, s.hi, doc)
	return s.lo < s.hi && f.d.PostDoc[s.lo] == doc
}

// findIn returns a document's entry in a term's posting span.
func (f *FrozenIndex) findIn(term uint32, doc int) (uint64, bool) {
	s := f.termRange(term)
	ok := f.seek(&s, uint32(doc))
	return s.lo, ok
}

// phraseAt reports whether the whole phrase occurs at global token
// start, ending at or before token end (its document's end).
func (f *FrozenIndex) phraseAt(start, end uint64, phrase []uint32) bool {
	if start+uint64(len(phrase)) > end {
		return false
	}
	toks := f.d.TokTerm[start : start+uint64(len(phrase))]
	for j, term := range phrase {
		if toks[j] != term {
			return false
		}
	}
	return true
}

// firstPhrase returns the first token of the phrase's first occurrence
// in a document, counted from the document's start: among its first
// pair's occurrences inside the document, or for a one-word phrase by a
// scan of the tokens.
func (f *FrozenIndex) firstPhrase(doc int, phrase []uint32) (int, bool) {
	lo, hi := f.d.DocTokOff[doc], f.d.DocTokOff[doc+1]
	if len(phrase) == 1 {
		if k := slices.Index(f.d.TokTerm[lo:hi], phrase[0]); k >= 0 {
			return k, true
		}
		return 0, false
	}
	_, s := f.pairRange(phrase[0], phrase[1])
	occ := f.d.PairTok[s.lo:s.hi]
	i, _ := slices.BinarySearch(occ, uint32(lo))
	for ; i < len(occ) && uint64(occ[i]) < hi; i++ {
		if f.phraseAt(uint64(occ[i]), hi, phrase) {
			return int(uint64(occ[i]) - lo), true
		}
	}
	return 0, false
}

// match returns the documents matching the compiled query, collected
// into sc.ids in ascending order.
//
// A phrase of two or more words is driven from its pivot: the adjacent
// word pair with the fewest occurrences. Each pivot occurrence g fixes
// the phrase start g-j (j the pair's offset in the phrase), so the walk
// visits the rare pair's occurrences instead of every position of a
// common word like "the" or "such". A pair the corpus lacks matches
// nothing. A one-word phrase is one more required term, and a query
// without a multi-word phrase is driven from its rarest required term.
// Either way the other required terms are checked per driver document,
// before any phrase check, by forward cursors that gallop over their
// posting spans: driver documents ascend, so no cursor ever moves back.
func (f *FrozenIndex) match(cq CompiledQuery, sc *searchScratch) []int {
	spans := sc.spans[:0]
	sc.ids = sc.ids[:0]
	if len(cq.Phrase) == 1 {
		spans = append(spans, f.termRange(cq.Phrase[0]))
	}
	for _, term := range cq.Required {
		spans = append(spans, f.termRange(term))
	}
	sc.spans = spans
	for _, s := range spans {
		if s.lo == s.hi {
			return nil
		}
	}
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
	switch phrase := cq.Phrase; {
	case len(phrase) > 1:
		j, pivot := -1, termSpan{}
		for i := range phrase[1:] {
			_, s := f.pairRange(phrase[i], phrase[i+1])
			if s.lo == s.hi {
				return nil
			}
			if j < 0 || s.hi-s.lo < pivot.hi-pivot.lo {
				j, pivot = i, s
			}
		}
		for i := pivot.lo; i < pivot.hi; {
			doc := f.d.docOf(uint64(f.d.PairTok[i]))
			lo, hi := f.d.DocTokOff[doc], f.d.DocTokOff[doc+1]
			if inAll(uint32(doc), 0) {
				for k := i; k < pivot.hi && uint64(f.d.PairTok[k]) < hi; k++ {
					if g := uint64(f.d.PairTok[k]); g >= lo+uint64(j) && f.phraseAt(g-uint64(j), hi, phrase) {
						ids = append(ids, doc)
						break
					}
				}
			}
			i = gallop(f.d.PairTok, i, pivot.hi, uint32(hi))
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
// required-term occurrences weigh 1. first is the occurrence span of a
// multi-word phrase's first pair (pairRange), a cursor the call moves
// forward to the document: score matching documents in ascending order.
func (f *FrozenIndex) relevance(doc int, cq CompiledQuery, first *termSpan) int {
	score := 0
	switch phrase := cq.Phrase; {
	case len(phrase) == 1:
		if e, ok := f.findIn(phrase[0], doc); ok {
			score += 3 * int(f.d.PostFreq[e])
		}
	case len(phrase) > 1:
		lo, hi := f.d.DocTokOff[doc], f.d.DocTokOff[doc+1]
		first.lo = gallop(f.d.PairTok, first.lo, first.hi, uint32(lo))
		for i := first.lo; i < first.hi && uint64(f.d.PairTok[i]) < hi; i++ {
			if f.phraseAt(uint64(f.d.PairTok[i]), hi, phrase) {
				score += 3
			}
		}
	}
	for _, term := range cq.Required {
		if e, ok := f.findIn(term, doc); ok {
			score += int(f.d.PostFreq[e])
		}
	}
	return score
}

// snippet builds the text window around the first phrase match (or
// the document head when the query has no phrase), sliced straight out
// of the text blob: byte spans recorded at indexing time, no
// reconstruction or copying.
func (f *FrozenIndex) snippet(doc int, cq CompiledQuery, radius int) string {
	base := f.d.DocTokOff[doc]
	n := int(f.d.DocTokOff[doc+1] - base)
	start, end := 0, min(n, 2*radius)
	if len(cq.Phrase) > 0 {
		if pos, ok := f.firstPhrase(doc, cq.Phrase); ok {
			start = max(0, pos-radius)
			end = min(n, pos+len(cq.Phrase)+radius)
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
	if len(cq.Required) == 0 {
		// A lone one-word phrase matches exactly the documents in the
		// term's posting span, a lone two-word phrase those its pair
		// occurs in; counting them needs no walk.
		switch len(cq.Phrase) {
		case 1:
			s := f.termRange(cq.Phrase[0])
			return int(s.hi - s.lo)
		case 2:
			if p, s := f.pairRange(cq.Phrase[0], cq.Phrase[1]); s.lo < s.hi {
				return int(f.d.PairDocs[p])
			}
			return 0
		}
	}
	sc := searchPool.Get().(*searchScratch)
	n := len(f.match(*cq, sc))
	searchPool.Put(sc)
	return n
}
