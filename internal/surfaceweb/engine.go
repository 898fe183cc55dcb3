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
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webiq/internal/fnv1a"
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
// match loop with an integer comparison. A word the corpus never
// contains compiles to nlp.NoTerm and matches nothing. A CompiledQuery
// is only meaningful with the engine that produced it.
type CompiledQuery struct {
	Phrase   []uint32
	Required []uint32

	// words is the parsed query the IDs were resolved from; the cache
	// key spells out its NoTerm words.
	words Query
}

// Key returns a canonical cache key for the compiled query: queries
// that differ only in whitespace, '+' prefixes, quoting of individual
// words, or required-term order ("a b" vs "a  b" vs "+b a") map to the
// same key. Required-term duplicates are preserved — they affect
// relevance scores — but their order is normalized by sorting; phrase
// order is significant and kept. Every word the corpus never contains
// compiles to nlp.NoTerm, so the key carries the raw text of those
// words: "authors such as zzzq" and "authors such as yyyq" stay two
// keys, as they are two queries.
func (cq CompiledQuery) Key() string {
	return string(cq.AppendKey(nil))
}

// AppendKey appends the canonical cache key (see Key) to dst and
// returns the extended slice. Callers holding a reusable buffer avoid
// the per-probe key allocation Key incurs.
func (cq CompiledQuery) AppendKey(dst []byte) []byte {
	for i, id := range cq.Phrase {
		dst = appendKeyTerm(dst, id, cq.words.Phrase, i)
	}
	dst = append(dst, '|')
	if len(cq.Required) == 0 {
		return dst
	}
	var stack [16]uint32
	req := append(stack[:0], cq.Required...)
	slices.Sort(req)
	// NoTerm is the largest ID, so unseen words sort last; order them
	// by their text instead.
	known := len(req)
	for known > 0 && req[known-1] == nlp.NoTerm {
		known--
	}
	for _, id := range req[:known] {
		dst = appendKeyTerm(dst, id, nil, 0)
	}
	if known < len(req) {
		var wstack [4]string
		unseen := wstack[:0]
		for i, id := range cq.Required {
			if id == nlp.NoTerm {
				unseen = append(unseen, cq.words.Required[i])
			}
		}
		slices.Sort(unseen)
		for i := range unseen {
			dst = appendKeyTerm(dst, nlp.NoTerm, unseen, i)
		}
	}
	return dst
}

// appendKeyTerm appends one term of a cache key: its ID, or for an
// unseen word (nlp.NoTerm) the length-prefixed text words[i], so
// distinct unseen words never share a key.
func appendKeyTerm(dst []byte, id uint32, words []string, i int) []byte {
	if id == nlp.NoTerm {
		dst = append(dst, '~')
		dst = strconv.AppendInt(dst, int64(len(words[i])), 10)
		dst = append(dst, ':')
		dst = append(dst, words[i]...)
	} else {
		dst = strconv.AppendUint(dst, uint64(id), 10)
	}
	return append(dst, ',')
}

// Engine is the in-memory search engine.
//
// Its one storage is a FrozenIndex: flat CSR arrays (see freeze.go).
// Add tokenizes each page straight into the append-only token, text
// and title arrays and interns its terms; nothing else is built. The
// first read — Compile, NumHits, Search or Index — freezes the engine
// once: the term table stops growing, the postings and the word-pair
// index are transposed out of the token arrays, and the index is
// published atomically. Every query after that reads the immutable
// arrays with no lock, and Add panics. Query accounting lives in atomics, so
// charging a query needs no exclusive section either.
type Engine struct {
	// mu serializes Add, Instrument and the freeze; no query takes it.
	mu    sync.Mutex
	terms *nlp.TermTable
	// build holds what Add has appended until the freeze: the token
	// arrays and the per-document offset tables. Texts and titles
	// accumulate in text and title.
	build       FrozenData
	text, title strings.Builder
	idx         atomic.Pointer[FrozenIndex]

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
// Passing nil leaves the engine uninstrumented (the default). Call it
// before issuing queries: the query path reads the metrics unlocked.
func (e *Engine) Instrument(r *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mQueries = r.Counter("webiq_engine_queries_total", "Search-engine queries served.")
	e.mLatency = r.Histogram("webiq_engine_query_virtual_seconds", "Simulated per-query retrieval latency in seconds.", nil)
	e.mDocs = r.Gauge("webiq_engine_corpus_docs", "Pages indexed in the synthetic Surface-Web corpus.")
	e.mDocs.Set(float64(e.docCountLocked()))
}

// docCountLocked returns the corpus size; callers hold e.mu.
func (e *Engine) docCountLocked() int {
	if fi := e.idx.Load(); fi != nil {
		return fi.numDocs
	}
	return len(e.build.TextOff) - 1
}

// NewEngine returns an empty engine with the paper's latency range and
// the standard snippet radius.
func NewEngine() *Engine {
	return &Engine{
		terms:         nlp.NewTermTable(),
		build:         FrozenData{DocTokOff: []uint64{0}, TextOff: []uint64{0}, TitleOff: []uint64{0}},
		MinLatency:    100 * time.Millisecond,
		MaxLatency:    500 * time.Millisecond,
		SnippetRadius: 10,
	}
}

// Terms returns the engine's term table, shared with every query
// compiled against it.
func (e *Engine) Terms() *nlp.TermTable { return e.terms }

// Add tokenizes a document into the engine and returns its assigned
// ID; it becomes searchable at the freeze. Add panics once the engine
// is frozen, after its first read: a frozen corpus never grows, and
// silently dropping a document would desynchronize index and text.
func (e *Engine) Add(title, text string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.idx.Load() != nil {
		panic("surfaceweb: Add on a frozen engine")
	}
	b := &e.build
	id := len(b.TextOff) - 1
	var sc nlp.TokenScanner
	for sc.Reset(text); sc.Scan(); {
		t := sc.Token()
		if t.Kind == nlp.Punct {
			continue
		}
		b.TokTerm = append(b.TokTerm, e.terms.Intern(t.Norm))
		b.TokStart = append(b.TokStart, uint32(t.Pos))
		b.TokEnd = append(b.TokEnd, uint32(t.Pos+len(t.Text)))
	}
	e.text.WriteString(text)
	e.title.WriteString(title)
	b.DocTokOff = append(b.DocTokOff, uint64(len(b.TokTerm)))
	b.TextOff = append(b.TextOff, uint64(e.text.Len()))
	b.TitleOff = append(b.TitleOff, uint64(e.title.Len()))
	e.mDocs.Set(float64(id + 1))
	return id
}

// Index returns the engine's frozen index, freezing the engine first
// if nothing has read it yet. Freezing happens once, under the build
// mutex: the term table is frozen in place, the postings and the
// word-pair index are built from the token arrays, and the index is
// published for lock-free readers.
func (e *Engine) Index() *FrozenIndex {
	if fi := e.idx.Load(); fi != nil {
		return fi
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if fi := e.idx.Load(); fi != nil {
		return fi
	}
	e.terms.Freeze()
	d := e.build
	d.TextBlob, d.TitleBlob = e.text.String(), e.title.String()
	d.build(e.terms.Len())
	fi := &FrozenIndex{terms: e.terms, d: d, numDocs: len(d.TextOff) - 1}
	e.build = FrozenData{}
	e.text.Reset()
	e.title.Reset()
	e.idx.Store(fi)
	return fi
}

// NumDocs returns the corpus size.
func (e *Engine) NumDocs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.docCountLocked()
}

// QueryCount returns the number of queries served so far.
func (e *Engine) QueryCount() int {
	return int(e.queries.Load())
}

// VirtualTime returns the accumulated simulated retrieval time.
func (e *Engine) VirtualTime() time.Duration {
	return time.Duration(e.virtualTime.Load())
}

// QueryLatency returns the deterministic simulated latency of a query —
// the amount charge adds to the virtual clock when the query is served.
// Cache layers use it to account the virtual time a cache hit avoided.
func (e *Engine) QueryLatency(q string) time.Duration {
	lat := e.MinLatency
	if span := e.MaxLatency - e.MinLatency; span > 0 {
		lat += time.Duration(int64(fnv1a.String(q)) % int64(span))
	}
	return lat
}

// charge records one query and its simulated latency. The latency is
// deterministic in the query string so runs are reproducible. All
// updates are atomic: charge is called from the lock-free query path.
func (e *Engine) charge(q string) {
	e.queries.Add(1)
	lat := e.QueryLatency(q)
	e.virtualTime.Add(int64(lat))
	e.mQueries.Inc()
	e.mLatency.Observe(lat.Seconds())
}

// Compile parses query and resolves it against the term table. It
// freezes the engine first, so query-only words never enter the corpus
// vocabulary: they compile to nlp.NoTerm and match nothing.
func (e *Engine) Compile(query string) CompiledQuery {
	terms := e.Index().terms
	q := ParseQuery(query)
	return CompiledQuery{Phrase: internAll(terms, q.Phrase), Required: internAll(terms, q.Required), words: q}
}

// internAll resolves words against a frozen table, nil for none.
func internAll(terms *nlp.TermTable, words []string) []uint32 {
	if len(words) == 0 {
		return nil
	}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = terms.Intern(w)
	}
	return ids
}

// NumHits returns the number of documents matching the query.
func (e *Engine) NumHits(query string) int {
	return e.NumHitsCompiled(e.Compile(query), query)
}

// NumHitsCompiled counts the documents matching an already-compiled
// query. charged is the raw query string the virtual clock is billed
// for — accounting is deterministic in it.
func (e *Engine) NumHitsCompiled(cq CompiledQuery, charged string) int {
	fi := e.Index()
	e.charge(charged)
	return fi.count(&cq)
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
	fi := e.Index()
	e.charge(charged)
	sc := searchPool.Get().(*searchScratch)
	ranked := sc.ranked[:0]
	var first termSpan
	if len(cq.Phrase) > 1 {
		_, first = fi.pairRange(cq.Phrase[0], cq.Phrase[1])
	}
	for _, id := range fi.match(cq, sc) {
		ranked = append(ranked, scoredDoc{id: id, score: fi.relevance(id, cq, &first)})
	}
	sc.ranked = ranked
	slices.SortFunc(ranked, func(a, b scoredDoc) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make([]Snippet, 0, len(ranked))
	var tg nlp.Tagger
	for _, r := range ranked {
		text := fi.snippet(r.id, cq, e.SnippetRadius)
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

// termSpan is a posting-entry range of one term.
type termSpan struct{ lo, hi uint64 }

// searchScratch holds the per-query working set — the required terms'
// posting spans, matched IDs, ranking buffer, and the buffer snippets
// are tagged and packed in — pooled so steady-state query execution
// allocates only its result snippets.
type searchScratch struct {
	spans  []termSpan
	ids    []int
	ranked []scoredDoc
	pack   nlp.PackBuffer
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}
