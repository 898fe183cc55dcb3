// Package surfaceweb simulates the Surface Web as WebIQ observes it: a
// corpus of pages behind a search-engine interface supporting phrase
// queries, required-keyword filters, hit counts, and result snippets —
// the four observables WebIQ's extraction and validation steps consume
// (the paper used the Google Web API).
//
// The package also accounts for query overhead: every query increments a
// counter and charges a deterministic per-query latency (the paper cites
// 0.1–0.5 s per Google query) to a virtual clock, which the Figure-8
// overhead experiment reads.
package surfaceweb

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webiq/internal/nlp"
	"webiq/internal/obs"
)

// Document is one Surface-Web page.
type Document struct {
	ID    int
	Title string
	Text  string
}

// Snippet is a search-result excerpt containing the matched phrase.
type Snippet struct {
	DocID int
	Text  string
	// Tagged is Text tokenized and POS-tagged once, where the engine
	// built the snippet; a cached result shares it with every hit.
	Tagged nlp.TaggedText
}

// Tokens appends the tagged tokens of the snippet text to dst: the
// engine's packed tags, expanded, or — for a snippet built by hand
// without them — Text tagged afresh. Either way the result equals
// nlp.Tagger.TagAppend(dst, s.Text).
func (s Snippet) Tokens(dst []nlp.TaggedToken) []nlp.TaggedToken {
	if s.Tagged.Text() != s.Text {
		var tg nlp.Tagger
		return tg.TagAppend(dst, s.Text)
	}
	return s.Tagged.AppendTokens(dst)
}

// Query is a parsed search-engine query: an optional exact phrase (the
// double-quoted part) plus required keywords (the '+' terms). Bare terms
// are treated as required keywords too, matching how WebIQ uses the
// engine.
type Query struct {
	Phrase   []string
	Required []string
}

// ParseQuery parses the Google-style query syntax used in the paper:
//
//	"authors such as" +book +title +isbn
//
// Quoted segments are matched left to right; the first becomes the
// phrase and any further ones are demoted to required terms. An
// unmatched trailing quote is not a phrase delimiter — the text after
// it is treated as plain keywords. Everything outside complete quote
// pairs is split into fields, each stripped of one leading '+' and
// reduced to its word tokens.
func ParseQuery(q string) Query {
	var out Query
	var plain []string // unquoted chunks, processed after all phrases
	i := 0
	for {
		start := strings.IndexByte(q[i:], '"')
		if start < 0 {
			break
		}
		start += i
		end := strings.IndexByte(q[start+1:], '"')
		if end < 0 {
			break
		}
		phrase := q[start+1 : start+1+end]
		if len(out.Phrase) == 0 {
			out.Phrase = nlp.Words(phrase)
		} else {
			out.Required = nlp.AppendWords(out.Required, phrase)
		}
		if start > i {
			plain = append(plain, q[i:start])
		}
		i = start + 1 + end + 1
	}
	if i < len(q) {
		plain = append(plain, q[i:])
	}
	for _, chunk := range plain {
		for _, f := range strings.Fields(chunk) {
			f = strings.TrimPrefix(f, "+")
			out.Required = nlp.AppendWords(out.Required, f)
		}
	}
	return out
}

// CompiledQuery is a query resolved against an engine's term table:
// phrase and required terms as dense term IDs. Compiling once per
// logical query replaces every per-document string comparison in the
// match loop with an integer comparison. A CompiledQuery is only
// meaningful with the engine that produced it.
type CompiledQuery struct {
	Phrase   []uint32
	Required []uint32
}

// Key returns a canonical cache key for the compiled query: queries
// that differ only in whitespace, '+' prefixes, quoting of individual
// words, or required-term order ("a b" vs "a  b" vs "+b a") map to the
// same key. Required-term duplicates are preserved — they affect
// relevance scores — but their order is normalized by sorting; phrase
// order is significant and kept.
func (cq CompiledQuery) Key() string {
	return string(cq.AppendKey(nil))
}

// AppendKey appends the canonical cache key (see Key) to dst and
// returns the extended slice. Callers holding a reusable buffer avoid
// the per-probe key allocation Key incurs.
func (cq CompiledQuery) AppendKey(dst []byte) []byte {
	for _, id := range cq.Phrase {
		dst = strconv.AppendUint(dst, uint64(id), 10)
		dst = append(dst, ',')
	}
	dst = append(dst, '|')
	if len(cq.Required) > 0 {
		var stack [16]uint32
		req := stack[:0]
		if len(cq.Required) > len(stack) {
			req = make([]uint32, 0, len(cq.Required))
		}
		req = append(req, cq.Required...)
		sort.Slice(req, func(i, j int) bool { return req[i] < req[j] })
		for _, id := range req {
			dst = strconv.AppendUint(dst, uint64(id), 10)
			dst = append(dst, ',')
		}
	}
	return dst
}

// postings maps document ID to the token positions of a term.
type postings map[int][]int

// docToken is one indexed (non-punctuation) token of a document: its
// interned term and the byte span of the original text it covers. At
// 12 bytes it replaces the 40+-byte nlp.Token in the per-document
// arrays, and snippets are rebuilt from the spans without copying.
type docToken struct {
	term       uint32
	start, end uint32
}

// Engine is the in-memory search engine.
//
// The index is effectively immutable once the corpus is built, so the
// read path (NumHits, Search, and the other accessors) takes only a
// read lock and concurrent queriers never serialize on each other; Add
// takes the write lock. Query accounting lives in atomics so charging a
// query needs no exclusive section either.
type Engine struct {
	mu    sync.RWMutex
	terms *nlp.TermTable
	docs  map[int]*indexedDoc
	index map[uint32]postings
	next  int

	// ro, when non-nil, is the frozen flat-array storage the read path
	// serves from instead of the maps above (see freeze.go). It is set
	// only at construction (NewFrozenEngine) and never cleared.
	ro *FrozenIndex

	queries     atomic.Int64
	virtualTime atomic.Int64 // nanoseconds

	// Optional metrics; nil-safe no-ops when Instrument was not called.
	mQueries *obs.Counter
	mLatency *obs.Histogram
	mDocs    *obs.Gauge

	// Latency bounds for the simulated per-query retrieval time. Set
	// them before issuing queries: they are read without synchronization
	// on the query path.
	MinLatency, MaxLatency time.Duration
	// SnippetRadius is the number of tokens of context on each side of a
	// phrase match in a snippet.
	SnippetRadius int
}

// Instrument registers the engine's metrics on r:
//
//	webiq_engine_queries_total          search queries served
//	webiq_engine_query_virtual_seconds  per-query simulated latency
//	webiq_engine_corpus_docs            corpus size in pages
//
// Passing nil leaves the engine uninstrumented (the default).
func (e *Engine) Instrument(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mQueries = r.Counter("webiq_engine_queries_total", "Search-engine queries served.")
	e.mLatency = r.Histogram("webiq_engine_query_virtual_seconds", "Simulated per-query retrieval latency in seconds.", nil)
	e.mDocs = r.Gauge("webiq_engine_corpus_docs", "Pages indexed in the synthetic Surface-Web corpus.")
	e.mDocs.Set(float64(e.docCountLocked()))
}

// docCountLocked returns the corpus size; callers hold e.mu (either
// mode).
func (e *Engine) docCountLocked() int {
	if e.ro != nil {
		return e.ro.numDocs
	}
	return len(e.docs)
}

type indexedDoc struct {
	doc    Document
	tokens []docToken // word/number tokens only
}

// NewEngine returns an empty engine with the paper's latency range.
func NewEngine() *Engine {
	return &Engine{
		terms:         nlp.NewTermTable(),
		docs:          map[int]*indexedDoc{},
		index:         map[uint32]postings{},
		MinLatency:    100 * time.Millisecond,
		MaxLatency:    500 * time.Millisecond,
		SnippetRadius: 10,
	}
}

// Terms returns the engine's term table, shared with every query
// compiled against it.
func (e *Engine) Terms() *nlp.TermTable { return e.terms }

// Add indexes a document and returns its assigned ID. It panics on a
// frozen engine: snapshot-loaded corpora never grow, and silently
// dropping a document would desynchronize index and text.
func (e *Engine) Add(title, text string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ro != nil {
		panic("surfaceweb: Add on a frozen engine")
	}
	id := e.next
	e.next++
	var toks []docToken
	var sc nlp.TokenScanner
	for sc.Reset(text); sc.Scan(); {
		t := sc.Token()
		if t.Kind == nlp.Punct {
			continue
		}
		toks = append(toks, docToken{
			term:  e.terms.Intern(t.Norm),
			start: uint32(t.Pos),
			end:   uint32(t.Pos + len(t.Text)),
		})
	}
	e.docs[id] = &indexedDoc{doc: Document{ID: id, Title: title, Text: text}, tokens: toks}
	for pos, t := range toks {
		p := e.index[t.term]
		if p == nil {
			p = postings{}
			e.index[t.term] = p
		}
		p[id] = append(p[id], pos)
	}
	e.mDocs.Set(float64(len(e.docs)))
	return id
}

// NumDocs returns the corpus size.
func (e *Engine) NumDocs() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.docCountLocked()
}

// Vocabulary returns the number of distinct indexed terms — a cheap
// sanity statistic for corpus inspection.
func (e *Engine) Vocabulary() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ro != nil {
		return e.ro.vocab
	}
	return len(e.index)
}

// TermFrequency returns how many documents contain the (normalized)
// term.
func (e *Engine) TermFrequency(term string) int {
	norm := ""
	if ws := nlp.Words(term); len(ws) > 0 {
		norm = ws[0]
	}
	id, ok := e.terms.Lookup(norm)
	if !ok {
		return 0
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.ro != nil {
		return e.ro.docCount(id)
	}
	return len(e.index[id])
}

// QueryCount returns the number of queries served so far.
func (e *Engine) QueryCount() int {
	return int(e.queries.Load())
}

// VirtualTime returns the accumulated simulated retrieval time.
func (e *Engine) VirtualTime() time.Duration {
	return time.Duration(e.virtualTime.Load())
}

// ResetAccounting zeroes the query counter and virtual clock.
//
// It deliberately does NOT reset the obs registry counters
// (webiq_engine_queries_total, webiq_engine_query_virtual_seconds):
// Prometheus counters are cumulative over the process lifetime and must
// stay monotonic for rate() to work, while QueryCount/VirtualTime are
// per-run accounting that experiments reset between conditions. After a
// reset the two therefore drift apart by exactly the pre-reset totals;
// reconcile them per run with clock deltas, as the Acquirer does.
func (e *Engine) ResetAccounting() {
	e.queries.Store(0)
	e.virtualTime.Store(0)
}

// QueryLatency returns the deterministic simulated latency of a query —
// the amount charge adds to the virtual clock when the query is served.
// Cache layers use it to account the virtual time a cache hit avoided.
func (e *Engine) QueryLatency(q string) time.Duration {
	lat := e.MinLatency
	if span := e.MaxLatency - e.MinLatency; span > 0 {
		lat += time.Duration(int64(hash32(q)) % int64(span))
	}
	return lat
}

// charge records one query and its simulated latency. The latency is
// deterministic in the query string so runs are reproducible. All
// updates are atomic: charge is called from the read-locked query path.
func (e *Engine) charge(q string) {
	e.queries.Add(1)
	lat := e.QueryLatency(q)
	e.virtualTime.Add(int64(lat))
	e.mQueries.Inc()
	e.mLatency.Observe(lat.Seconds())
}

// Compile parses query and resolves it against the term table. Query
// terms never seen by the index are interned too — they get IDs with no
// postings, so the compiled query correctly matches nothing.
func (e *Engine) Compile(query string) CompiledQuery {
	return e.CompileParsed(ParseQuery(query))
}

// CompileParsed resolves an already-parsed query against the term
// table.
func (e *Engine) CompileParsed(q Query) CompiledQuery {
	var cq CompiledQuery
	if len(q.Phrase) > 0 {
		cq.Phrase = make([]uint32, len(q.Phrase))
		for i, w := range q.Phrase {
			cq.Phrase[i] = e.terms.Intern(w)
		}
	}
	if len(q.Required) > 0 {
		cq.Required = make([]uint32, len(q.Required))
		for i, w := range q.Required {
			cq.Required[i] = e.terms.Intern(w)
		}
	}
	return cq
}

// NumHits returns the number of documents matching the query.
func (e *Engine) NumHits(query string) int {
	return e.NumHitsCompiled(e.Compile(query), query)
}

// NumHitsCompiled counts the documents matching an already-compiled
// query. charged is the raw query string the virtual clock is billed
// for — accounting is deterministic in it.
func (e *Engine) NumHitsCompiled(cq CompiledQuery, charged string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.charge(charged)
	if len(cq.Phrase) == 1 && len(cq.Required) == 0 {
		// A one-word phrase matches exactly the documents in the term's
		// posting list; counting them needs no position walk.
		if e.ro != nil {
			return e.ro.docCount(cq.Phrase[0])
		}
		return len(e.index[cq.Phrase[0]])
	}
	sc := searchPool.Get().(*searchScratch)
	var n int
	if e.ro != nil {
		n = len(e.ro.match(cq, sc))
	} else {
		n = len(e.matchLocked(cq, sc))
	}
	searchPool.Put(sc)
	return n
}

// Search returns up to k result snippets for the query, ranked by
// relevance: documents with more phrase occurrences and more required-
// term occurrences score higher, with document ID as a deterministic
// tie-break. Each snippet comes tokenized and tagged (Snippet.Tagged),
// so readers of a cached result never tag it again.
func (e *Engine) Search(query string, k int) []Snippet {
	return e.SearchCompiled(e.Compile(query), query, k)
}

// SearchCompiled is Search for an already-compiled query; charged is
// the raw query string billed to the virtual clock.
func (e *Engine) SearchCompiled(cq CompiledQuery, charged string, k int) []Snippet {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.charge(charged)
	ro := e.ro
	sc := searchPool.Get().(*searchScratch)
	var ids []int
	if ro != nil {
		ids = ro.match(cq, sc)
	} else {
		ids = e.matchLocked(cq, sc)
	}
	ranked := sc.ranked[:0]
	for _, id := range ids {
		var score int
		if ro != nil {
			score = ro.relevance(id, cq)
		} else {
			score = e.relevanceLocked(id, cq)
		}
		ranked = append(ranked, scoredDoc{id: id, score: score})
	}
	sc.ranked = ranked
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]Snippet, 0, len(ranked))
	var tg nlp.Tagger
	for _, r := range ranked {
		var text string
		if ro != nil {
			text = ro.snippet(r.id, cq, e.SnippetRadius)
		} else {
			text = e.snippetLocked(r.id, cq)
		}
		out = append(out, Snippet{DocID: r.id, Text: text, Tagged: tg.PackWith(&sc.pack, text)})
	}
	searchPool.Put(sc)
	return out
}

// scoredDoc pairs a matching document with its relevance score.
type scoredDoc struct {
	id    int
	score int
}

// termSpan is a posting-entry range of one term in a frozen index.
type termSpan struct{ lo, hi uint64 }

// searchScratch holds the per-query working set — the posting-list
// slice (mutable path) or span list (frozen path), matched IDs, ranking
// buffer, and the buffer snippets are tagged and packed in — pooled
// so steady-state query execution allocates only its result snippets.
type searchScratch struct {
	lists  []postings
	spans  []termSpan
	ids    []int
	ranked []scoredDoc
	pack   nlp.PackBuffer
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// relevanceLocked scores a matching document: phrase occurrences weigh
// 3, required-term occurrences weigh 1.
func (e *Engine) relevanceLocked(id int, cq CompiledQuery) int {
	score := 0
	if len(cq.Phrase) > 0 {
		d := e.docs[id]
		positions := e.index[cq.Phrase[0]][id]
	starts:
		for _, pos := range positions {
			if pos+len(cq.Phrase) > len(d.tokens) {
				continue
			}
			for j := 1; j < len(cq.Phrase); j++ {
				if d.tokens[pos+j].term != cq.Phrase[j] {
					continue starts
				}
			}
			score += 3
		}
	}
	for _, term := range cq.Required {
		score += len(e.index[term][id])
	}
	return score
}

// matchLocked returns the IDs of documents matching the compiled query,
// in sc.ids (unsorted — callers count or re-rank). Required terms are
// intersected directly against their posting lists, starting from the
// smallest list, so the working set never exceeds the rarest term's
// postings and no per-term candidate map is allocated.
func (e *Engine) matchLocked(cq CompiledQuery, sc *searchScratch) []int {
	lists := sc.lists[:0]
	sc.ids = sc.ids[:0]
	missing := false
	for _, term := range cq.Required {
		p, ok := e.index[term]
		if !ok {
			missing = true
			break
		}
		lists = append(lists, p)
	}
	sc.lists = lists
	if missing {
		return nil
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })

	inAll := func(id int, from int) bool {
		for _, p := range lists[from:] {
			if _, ok := p[id]; !ok {
				return false
			}
		}
		return true
	}

	ids := sc.ids
	switch {
	case len(cq.Phrase) > 0:
		first, ok := e.index[cq.Phrase[0]]
		if !ok {
			return nil
		}
		for id, positions := range first {
			if !phraseAt(e.docs[id].tokens, positions, cq.Phrase) {
				continue
			}
			if inAll(id, 0) {
				ids = append(ids, id)
			}
		}
	case len(lists) > 0:
		for id := range lists[0] {
			if inAll(id, 1) {
				ids = append(ids, id)
			}
		}
	}
	sc.ids = ids
	return ids
}

// phraseAt reports whether the phrase occurs in toks at any of the
// given start positions.
func phraseAt(toks []docToken, positions []int, phrase []uint32) bool {
starts:
	for _, pos := range positions {
		if pos+len(phrase) > len(toks) {
			continue
		}
		for j := 1; j < len(phrase); j++ {
			if toks[pos+j].term != phrase[j] {
				continue starts
			}
		}
		return true
	}
	return false
}

// snippetLocked builds the text window around the first phrase match (or
// the document head when the query has no phrase). The snippet is a
// substring of the stored document text — byte spans recorded at
// indexing time, no reconstruction or copying.
func (e *Engine) snippetLocked(id int, cq CompiledQuery) string {
	d := e.docs[id]
	start, end := 0, min(len(d.tokens), 2*e.SnippetRadius)
	if len(cq.Phrase) > 0 {
		if pos, ok := e.firstPhrasePosLocked(d, cq.Phrase); ok {
			start = max(0, pos-e.SnippetRadius)
			end = min(len(d.tokens), pos+len(cq.Phrase)+e.SnippetRadius)
		}
	}
	if start >= end {
		return ""
	}
	return d.doc.Text[d.tokens[start].start:d.tokens[end-1].end]
}

func (e *Engine) firstPhrasePosLocked(d *indexedDoc, phrase []uint32) (int, bool) {
	p, ok := e.index[phrase[0]]
	if !ok {
		return 0, false
	}
	positions := p[d.doc.ID]
starts:
	for _, pos := range positions {
		if pos+len(phrase) > len(d.tokens) {
			continue
		}
		for j := 1; j < len(phrase); j++ {
			if d.tokens[pos+j].term != phrase[j] {
				continue starts
			}
		}
		return pos, true
	}
	return 0, false
}

func hash32(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// hash32b is hash32 over a byte slice; the two agree on equal contents.
func hash32b(b []byte) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
