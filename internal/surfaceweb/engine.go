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
	d.build(e.terms)
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

// Compile resolves query against the term table in one pass over its
// bytes, with ParseQuery's syntax: the words of the first quoted
// segment that has any are the phrase; the words of every later quoted
// segment, then those outside complete quote pairs, are required
// terms. Each word is folded and looked up by its bytes
// (nlp.TermTable.AppendWordIDs), so no word becomes a string and
// nothing is interned. Compile freezes the engine first, so query-only
// words never enter the corpus vocabulary: they compile to nlp.NoTerm
// and match nothing.
func (e *Engine) Compile(query string) CompiledQuery {
	terms := e.Index().terms
	// ParseQuery lists the later quoted segments' words before the
	// unquoted ones, so the two are gathered apart.
	var pb, qb, ub [16]uint32
	phrase, quoted, plain := pb[:0], qb[:0], ub[:0]
	i := 0
	for {
		start := strings.IndexByte(query[i:], '"')
		if start < 0 {
			break
		}
		start += i
		end := strings.IndexByte(query[start+1:], '"')
		if end < 0 {
			break
		}
		seg := query[start+1 : start+1+end]
		if len(phrase) == 0 {
			phrase = terms.AppendWordIDs(phrase, seg)
		} else {
			quoted = terms.AppendWordIDs(quoted, seg)
		}
		// A '+' is never part of a word, so the unquoted text needs no
		// field splitting or prefix stripping to yield ParseQuery's
		// words.
		plain = terms.AppendWordIDs(plain, query[i:start])
		i = start + 1 + end + 1
	}
	if i < len(query) {
		plain = terms.AppendWordIDs(plain, query[i:])
	}
	n := len(phrase) + len(quoted) + len(plain)
	if n == 0 {
		return CompiledQuery{}
	}
	ids := make([]uint32, 0, n)
	ids = append(append(append(ids, phrase...), quoted...), plain...)
	var cq CompiledQuery
	if p := len(phrase); p > 0 {
		cq.Phrase = ids[:p:p]
	}
	if len(ids) > len(phrase) {
		cq.Required = ids[len(phrase):]
	}
	return cq
}

// NumHits returns the number of documents matching the query.
func (e *Engine) NumHits(query string) int {
	cq := e.Compile(query)
	e.charge(query)
	return e.Index().count(&cq)
}

// Search returns up to k result snippets for the query, ranked by
// relevance: documents with more phrase occurrences and more required-
// term occurrences score higher, with document ID as a deterministic
// tie-break. Each snippet comes with its window's tags (Snippet.Tokens),
// so readers of a cached result never tag it again.
func (e *Engine) Search(query string, k int) []Snippet {
	cq := e.Compile(query)
	e.charge(query)
	return e.search(cq, k)
}

// search ranks and snippets the documents matching a compiled query,
// charging nothing.
func (e *Engine) search(cq CompiledQuery, k int) []Snippet {
	fi := e.Index()
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
	out := make([]Snippet, len(ranked))
	tags, ends := sc.tags[:0], sc.ends[:0]
	for i, r := range ranked {
		lo, hi := fi.window(r.id, cq, e.SnippetRadius)
		text := fi.windowText(r.id, lo, hi)
		tags = fi.appendTags(tags, &sc.toks, text, lo, hi)
		ends = append(ends, len(tags))
		out[i] = Snippet{DocID: r.id, Text: text, view: snippetView{fi: fi, lo: lo, hi: hi, text: text}}
	}
	// One string holds every snippet's tags.
	all, from := string(tags), 0
	for i, end := range ends {
		out[i].view.tags, from = all[from:end], end
	}
	sc.tags, sc.ends = tags, ends
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
// posting spans, matched IDs, ranking buffer, and the buffers snippets
// are tagged in — pooled so steady-state query execution allocates
// only its result snippets and their tags.
type searchScratch struct {
	spans  []termSpan
	ids    []int
	ranked []scoredDoc
	toks   []nlp.TaggedToken
	tags   []byte
	ends   []int
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}
