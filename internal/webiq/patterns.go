package webiq

import (
	"strings"
	"sync"

	"webiq/internal/nlp"
)

// tagBufPool recycles the tagged-token buffers of snippet extraction:
// the extracted candidate strings reference the snippet text, never
// the buffer, so it can be reused across snippets.
var tagBufPool = sync.Pool{New: func() any {
	b := make([]nlp.TaggedToken, 0, 64)
	return &b
}}

// PatternKind distinguishes set patterns (which extract instance lists)
// from singleton patterns (one instance at a time), per Figure 4.
type PatternKind int

const (
	// SetPattern extracts a list of noun phrases.
	SetPattern PatternKind = iota
	// SingletonPattern extracts a single noun phrase.
	SingletonPattern
)

// Direction says whether the completion follows or precedes the cue
// phrase in text.
type Direction int

const (
	// After: "Ls such as NP1, ..., NPn".
	After Direction = iota
	// Before: "NP1, ..., NPn, and other Ls".
	Before
)

// ExtractionQuery is a materialized extraction query: the cue phrase
// (used both as the quoted search phrase and as the anchor of the
// extraction rule) plus metadata for the extraction rule.
type ExtractionQuery struct {
	// Pattern names the generating pattern (s1..s4, g1..g4).
	Pattern string
	Kind    PatternKind
	Dir     Direction
	// Cue is the cue phrase, already lower-cased.
	Cue string
	// CueWords is Cue pre-tokenized; ExtractFromSnippet falls back to
	// tokenizing Cue when it is nil (hand-built queries).
	CueWords []string
	// Query is the full search-engine query, cue phrase quoted and
	// domain keywords appended.
	Query string
}

// FormulateQueries materializes the extraction patterns of Figure 4 for
// a noun phrase obtained from the attribute label, narrowing with the
// domain information per Section 2.1: the entity name of the domain, the
// domain keyword, and up to MaxSiblingKeywords labels of other
// attributes on the schema.
func FormulateQueries(np nlp.NounPhrase, entity, domainKeyword string, siblingLabels []string, cfg Config) []ExtractionQuery {
	plural := np.Plural()
	singular := np.Text()
	if singular == "" {
		return nil
	}

	type protoPattern struct {
		name string
		kind PatternKind
		dir  Direction
		cue  string
	}
	protos := []protoPattern{
		{"s1", SetPattern, After, plural + " such as"},
		{"s2", SetPattern, After, "such " + plural + " as"},
		{"s3", SetPattern, After, plural + " including"},
		{"s4", SetPattern, Before, "and other " + plural},
		{"g1", SingletonPattern, After, "the " + singular + " of the " + entity + " is"},
		{"g2", SingletonPattern, After, "the " + singular + " is"},
		{"g3", SingletonPattern, Before, "is the " + singular + " of the " + entity},
		{"g4", SingletonPattern, Before, "is the " + singular},
	}

	suffix := querySuffix(domainKeyword, siblingLabels, cfg)
	out := make([]ExtractionQuery, 0, len(protos))
	for _, p := range protos {
		out = append(out, ExtractionQuery{
			Pattern:  p.name,
			Kind:     p.kind,
			Dir:      p.dir,
			Cue:      p.cue,
			CueWords: nlp.Words(p.cue),
			Query:    `"` + p.cue + `"` + suffix,
		})
	}
	return out
}

// querySuffix renders the domain-information keywords in the Google
// syntax of the paper's example: `"authors such as" +book +title +isbn`.
func querySuffix(domainKeyword string, siblingLabels []string, cfg Config) string {
	if !cfg.UseDomainKeywords {
		return ""
	}
	var b strings.Builder
	for _, w := range nlp.ContentWords(domainKeyword) {
		b.WriteString(" +" + w)
	}
	added := 0
	for _, l := range siblingLabels {
		if added >= cfg.MaxSiblingKeywords {
			break
		}
		words := nlp.ContentWords(l)
		if len(words) == 0 {
			continue
		}
		// Use the label's head word only; full multiword labels
		// over-constrain the query.
		b.WriteString(" +" + words[len(words)-1])
		added++
	}
	return b.String()
}

// ExtractFromSnippet applies the extraction rule of a query to one
// result snippet: locate the cue phrase, then extract the completion —
// the NP list after the cue for After-direction patterns, or the NP list
// between the preceding sentence boundary and the cue for
// Before-direction patterns. Singleton patterns keep only the first NP.
//
// It tags snippet itself. A caller holding an engine snippet passes its
// stored tags (surfaceweb.Snippet.Tokens) to ExtractFromTokens instead,
// as Surface does, and skips the tagging.
func ExtractFromSnippet(q ExtractionQuery, snippet string) []string {
	var tg nlp.Tagger
	bp := tagBufPool.Get().(*[]nlp.TaggedToken)
	tagged := tg.TagAppend((*bp)[:0], snippet)
	out := ExtractFromTokens(q, tagged)
	*bp = tagged
	tagBufPool.Put(bp)
	return out
}

// ExtractFromTokens is ExtractFromSnippet over a snippet already
// tokenized and tagged, such as surfaceweb.Snippet.Tokens returns.
func ExtractFromTokens(q ExtractionQuery, tagged []nlp.TaggedToken) []string {
	cueWords := q.CueWords
	if cueWords == nil {
		cueWords = nlp.Words(q.Cue)
	}
	if len(cueWords) == 0 {
		return nil
	}
	start, end, ok := findCue(tagged, cueWords)
	if !ok {
		return nil
	}

	var nps []string
	switch q.Dir {
	case After:
		nps = nlp.ExtractNPList(tagged, end)
	case Before:
		// Walk back to the sentence boundary, then read the list forward
		// up to the cue.
		from := start
		for from > 0 {
			t := tagged[from-1]
			if t.Kind == nlp.Punct && (t.Norm == "." || t.Norm == "!" || t.Norm == "?") {
				break
			}
			from--
		}
		all := nlp.ExtractNPList(tagged[:start], from)
		nps = all
	}
	if q.Kind == SingletonPattern && len(nps) > 1 {
		if q.Dir == After {
			nps = nps[:1]
		} else {
			nps = nps[len(nps)-1:]
		}
	}
	return cleanCandidates(nps)
}

// findCue locates the first occurrence of the cue word sequence among
// the word tokens of the tagged snippet, returning the tagged-token
// index range [start, end).
func findCue(tagged []nlp.TaggedToken, cue []string) (int, int, bool) {
outer:
	for i := 0; i < len(tagged); i++ {
		if tagged[i].Kind == nlp.Punct || tagged[i].Norm != cue[0] {
			continue
		}
		ti := i
		for _, w := range cue {
			// Skip punctuation between cue words.
			for ti < len(tagged) && tagged[ti].Kind == nlp.Punct {
				ti++
			}
			if ti >= len(tagged) || tagged[ti].Norm != w {
				continue outer
			}
			ti++
		}
		return i, ti, true
	}
	return 0, 0, false
}

// cleanCandidates normalizes extracted candidates: trims, collapses
// whitespace, and drops empties and pure stopwords.
func cleanCandidates(raw []string) []string {
	var out []string
	var sc nlp.TokenScanner
	for _, c := range raw {
		c = normalizeSpace(c)
		if c == "" {
			continue
		}
		// All-stopword check over the scanned word norms; stops at the
		// first non-stopword without materializing the word list.
		allStop := true
		for sc.Reset(c); sc.Scan(); {
			t := sc.Token()
			if t.Kind == nlp.Punct {
				continue
			}
			if !nlp.IsStopword(t.Norm) {
				allStop = false
				break
			}
		}
		if allStop {
			continue
		}
		out = append(out, c)
	}
	return out
}

// normalizeSpace returns strings.Join(strings.Fields(s), " ") without
// allocating when s is already normalized: no leading, trailing, or
// doubled spaces and no whitespace byte other than ' '. Any non-ASCII
// byte falls back to the allocating path, since multi-byte encodings
// can hide Unicode whitespace.
func normalizeSpace(s string) string {
	if s == "" {
		return ""
	}
	if s[0] == ' ' || s[len(s)-1] == ' ' {
		return strings.Join(strings.Fields(s), " ")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
			return strings.Join(strings.Fields(s), " ")
		}
		// i+1 is in range: the last byte is known not to be a space.
		if c == ' ' && s[i+1] == ' ' {
			return strings.Join(strings.Fields(s), " ")
		}
	}
	return s
}
