package surfaceweb

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webiq/internal/kb"
	"webiq/internal/nlp"
)

// The linear-scan oracle: the engine's read semantics restated over
// each document's word tokens, with no index. Every engine read —
// hit counts, batched hit counts, ranked search with snippets — must
// agree with it exactly.

// oracleDoc is one document as the oracle sees it: its text and, per
// word token, the normalized form and byte span.
type oracleDoc struct {
	text  string
	words []string
	spans [][2]int
}

func newOracleDocs(texts []string) []oracleDoc {
	docs := make([]oracleDoc, len(texts))
	for i, text := range texts {
		docs[i].text = text
		for _, tok := range nlp.Tokenize(text) {
			if tok.Kind != nlp.Punct {
				docs[i].words = append(docs[i].words, tok.Norm)
				docs[i].spans = append(docs[i].spans, [2]int{tok.Pos, tok.Pos + len(tok.Text)})
			}
		}
	}
	return docs
}

// phraseAt reports whether the phrase occurs at token position i.
func (d oracleDoc) phraseAt(i int, phrase []string) bool {
	if i+len(phrase) > len(d.words) {
		return false
	}
	for j, w := range phrase {
		if d.words[i+j] != w {
			return false
		}
	}
	return true
}

// phraseCount counts the phrase's occurrences, trying every position.
func (d oracleDoc) phraseCount(phrase []string) int {
	n := 0
	for i := range d.words {
		if d.phraseAt(i, phrase) {
			n++
		}
	}
	return n
}

// termCount counts a word's occurrences.
func (d oracleDoc) termCount(w string) int {
	n := 0
	for _, x := range d.words {
		if x == w {
			n++
		}
	}
	return n
}

// matches: the phrase occurs somewhere and every required term is
// present; a query with neither matches nothing.
func (d oracleDoc) matches(q Query) bool {
	if len(q.Phrase) == 0 && len(q.Required) == 0 {
		return false
	}
	if len(q.Phrase) > 0 && d.phraseCount(q.Phrase) == 0 {
		return false
	}
	for _, w := range q.Required {
		if d.termCount(w) == 0 {
			return false
		}
	}
	return true
}

// relevance: phrase hits weigh 3, required-term hits 1 (a duplicated
// required term counts once per mention).
func (d oracleDoc) relevance(q Query) int {
	score := 0
	if len(q.Phrase) > 0 {
		score += 3 * d.phraseCount(q.Phrase)
	}
	for _, w := range q.Required {
		score += d.termCount(w)
	}
	return score
}

// snippet: radius tokens either side of the first phrase occurrence,
// or the first 2·radius tokens when there is no phrase.
func (d oracleDoc) snippet(q Query, radius int) string {
	start, end := 0, min(len(d.words), 2*radius)
	for i := range d.words {
		if len(q.Phrase) > 0 && d.phraseAt(i, q.Phrase) {
			start, end = max(0, i-radius), min(len(d.words), i+len(q.Phrase)+radius)
			break
		}
	}
	if start >= end {
		return ""
	}
	return d.text[d.spans[start][0]:d.spans[end-1][1]]
}

// oracleHit is one ranked search result.
type oracleHit struct {
	doc   int
	score int
	text  string
}

// oracleSearch ranks every matching document by relevance, ties by ID.
func oracleSearch(docs []oracleDoc, query string, radius int) []oracleHit {
	q := ParseQuery(query)
	var hits []oracleHit
	for id, d := range docs {
		if d.matches(q) {
			hits = append(hits, oracleHit{doc: id, score: d.relevance(q), text: d.snippet(q, radius)})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool { return hits[i].score > hits[j].score })
	return hits
}

// checkAgainstOracle runs every query through NumHits and through
// Search at several k, on the engine and through a CachedEngine in
// front of it, comparing each answer with the oracle. Every cached read
// is asked twice, once as a miss and once as a hit. One cache serves
// all the queries, so two queries that share a canonical key share an
// entry, and the oracle must agree with the answer of both.
func checkAgainstOracle(t *testing.T, e *Engine, texts []string, queries []string) {
	t.Helper()
	docs := newOracleDocs(texts)
	c := NewCachedEngine(e, 0)
	var tg nlp.Tagger
	checkSearch := func(read, q string, k int, got []Snippet, exp []oracleHit) {
		t.Helper()
		if len(got) != len(exp) {
			t.Errorf("%s(%s, %d): %d results, oracle %d", read, q, k, len(got), len(exp))
			return
		}
		for r, s := range got {
			if s.DocID != exp[r].doc || s.Text != exp[r].text {
				t.Errorf("%s(%s, %d)[%d] = doc %d %q, oracle doc %d %q",
					read, q, k, r, s.DocID, s.Text, exp[r].doc, exp[r].text)
			}
			if s.Tagged.Text() != s.Text || !reflect.DeepEqual(s.Tokens(nil), tg.TagAppend(nil, s.Text)) {
				t.Errorf("%s(%s, %d)[%d]: tags differ from tagging %q", read, q, k, r, s.Text)
			}
		}
	}
	for _, q := range queries {
		hits := oracleSearch(docs, q, e.SnippetRadius)
		if got := e.NumHits(q); got != len(hits) {
			t.Errorf("NumHits(%s) = %d, oracle %d", q, got, len(hits))
		}
		for _, read := range []string{"cached NumHits (miss)", "cached NumHits (hit)"} {
			if got := c.NumHits(q); got != len(hits) {
				t.Errorf("%s(%s) = %d, oracle %d", read, q, got, len(hits))
			}
		}
		for _, k := range []int{0, 1, 3, 100} {
			exp := hits
			if k > 0 && len(exp) > k {
				exp = exp[:k]
			}
			checkSearch("Search", q, k, e.Search(q, k), exp)
			checkSearch("cached Search (miss)", q, k, c.Search(q, k), exp)
			checkSearch("cached Search (hit)", q, k, c.Search(q, k), exp)
		}
	}
}

// indexTexts reads every document's stored text back out of an index:
// the raw page text, which the oracle tokenizes on its own.
func indexTexts(fi *FrozenIndex) []string {
	d := fi.Data()
	texts := make([]string, fi.NumDocs())
	for i := range texts {
		texts[i] = d.TextBlob[d.TextOff[i]:d.TextOff[i+1]]
	}
	return texts
}

// pivotTestTexts extend the batch corpus with documents that put a
// phrase's rarest term or pair (the pivot the index drives phrase
// matching from) at a document's first token and at its last, and
// repeat terms inside a phrase. Each document starts with words that
// end or continue a phrase of its neighbour, so a phrase check or a pair
// that read past a document boundary would find false matches: "walrus
// tusks" and "herds such as quagga" occur only across a boundary. The
// pairs of "quagga herds such" each occur, never in sequence, and
// punctuation the index drops sits inside "roam herds such".
var pivotTestTexts = []string{
	"such authors such as monet paint; many authors",
	"zebra herds such as stripes write such as quagga",
	"herds of authors zebra crossing",
	"quagga herds roam. Herds such as these; such such as walrus",
	"tusks of walrus herds such",
	"as quagga",
}

// pivotTestQueries pin pivot matching: the rarest phrase term or pair
// in the middle or last, a pivot occurrence before the phrase could
// start (the first token of a document), a phrase that would run past
// the document end or exists only across a boundary, pairs that occur
// but never in sequence, a repeated term, a word the corpus lacks
// mid-phrase or second, two-word phrases counted alone and narrowed by
// required terms, phrases across dropped punctuation, and required
// terms rarer than every phrase term.
var pivotTestQueries = []string{
	`"as stripes write"`, `"such as monet paint"`, `"such as quagga"`, `"authors such as updike"`,
	`"authors zebra"`, `"many authors zebra"`, `"authors zebra crossing"`, `"zebra herds"`,
	`"such as quagga herds"`, `"quagga herds of"`, `"write such as quagga"`,
	`"such authors such"`, `"such authors such as monet"`, `"such such"`, `"as as"`,
	`"authors zzzq such"`, `"such zzzq"`, `"zzzq as"`,
	`"authors such as" +quagga`, `"such as" +quagga`, `"such as" +zebra +monet`, `"such as" +stripes +herds`,
	`"authors" +zebra`, `+quagga +zebra`, `+such +quagga`,
	`"quagga herds such"`, `"quagga herds such as"`, `"herds roam herds"`,
	`"walrus tusks"`, `"as walrus tusks"`, `"walrus tusks of"`, `"herds such as quagga"`, `"crossing quagga"`,
	`"such such as"`, `"such such as walrus"`, `"as such such"`, `"these such such as walrus"`,
	`"walrus zzzq"`, `"quagga zzzq herds"`, `"zzzq zzzq"`,
	`"walrus herds"`, `"walrus herds" +tusks`, `"walrus tusks" +herds`, `"herds such" +quagga`,
	`"such such" +walrus`, `"such as" +walrus +tusks`, `"as quagga" +herds`,
	`"roam herds"`, `"roam herds such"`, `"paint many authors"`, `"these such"`,
}

// TestEngineMatchesOracleBatchCorpus checks every read on the
// hand-built batch corpus plus the pivot documents, at the default
// snippet radius and at one small enough to cut windows at both ends.
func TestEngineMatchesOracleBatchCorpus(t *testing.T) {
	queries := append(batchTestQueries(),
		`"authors such as zzzq"`, `"zzzq such as"`, `+authors +zzzq`, `authors zzzq yyyq`,
		`hemingway novels`, `novels hemingway novels`, `"such as" +authors +authors`,
		`"authors such as" updike`, `"hemingway"  +novels`, `"novels"`)
	queries = append(queries, pivotTestQueries...)
	texts := append(append([]string(nil), batchTestTexts...), pivotTestTexts...)
	for _, radius := range []int{10, 2} {
		e := NewEngine()
		for i, text := range texts {
			e.Add(fmt.Sprint(i), text)
		}
		e.SnippetRadius = radius
		t.Run(fmt.Sprintf("radius-%d", radius), func(t *testing.T) {
			checkAgainstOracle(t, e, texts, queries)
		})
	}
}

// TestEngineMatchesOracleGeneratedCorpus checks every read on a 0.2×
// generated corpus with the query shapes extraction and validation
// issue — among them every Figure-4 cue, most of which start with a
// common word — plus queries carrying words the corpus lacks. The
// index built from it must also pass NewFrozenIndex's structural
// validation.
func TestEngineMatchesOracleGeneratedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("scans a generated corpus per query")
	}
	e := NewEngine()
	BuildCorpus(e, kb.Domains(), DefaultCorpusConfig().Scaled(0.2))
	fi := e.Index()
	if _, err := NewFrozenIndex(fi.Terms(), fi.Data()); err != nil {
		t.Fatalf("built index fails validation: %v", err)
	}
	var queries []string
	for _, d := range kb.Domains() {
		narrow := " +" + strings.Join(strings.Fields(d.DomainKeyword), " +")
		for _, c := range d.Concepts {
			name := strings.ToLower(c.Name)
			// The eight Figure-4 cue shapes extraction issues, each
			// bare and narrowed by the domain keyword.
			for _, cue := range []string{
				name + "s such as", "such " + name + "s as", name + "s including", "and other " + name + "s",
				"the " + name + " of the " + d.EntityName + " is", "the " + name + " is",
				"is the " + name + " of the " + d.EntityName, "is the " + name,
			} {
				queries = append(queries, fmt.Sprintf("%q", cue), fmt.Sprintf("%q", cue)+narrow)
			}
			queries = append(queries,
				fmt.Sprintf("%q +%s", name, d.DomainKeyword),
				"+"+name,
				fmt.Sprintf("%q", name+" zzzq"),
			)
			for _, inst := range c.AllInstances()[:min(2, len(c.AllInstances()))] {
				queries = append(queries, fmt.Sprintf("%q", strings.ToLower(inst)), fmt.Sprintf("%q %s", name, inst))
			}
		}
	}
	queries = append(queries, `"such as"`, `+zzzq`, `"zzzq yyyq"`, `such as`)
	checkAgainstOracle(t, e, indexTexts(fi), queries)
}
