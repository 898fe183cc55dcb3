package surfaceweb

import (
	"unicode"
	"unicode/utf8"

	"webiq/internal/nlp"
)

// Snippet is a search-result excerpt containing the matched phrase.
type Snippet struct {
	DocID int
	Text  string
	// view is the window of the index Text was cut from, with the tags
	// the engine gave its tokens; a cached result shares it with every
	// hit. A snippet built by hand has none.
	view snippetView
}

// snippetView is a snippet's window of index tokens and the final
// part-of-speech tag of each token of its text, punctuation included:
// one byte per token, where a TaggedToken takes 64.
type snippetView struct {
	fi     *FrozenIndex
	lo, hi uint32 // global index tokens of the window
	text   string // the text the tags describe
	tags   string // nlp.TagCode of each token of text, in order
}

// Tokens appends the tagged tokens of the snippet text to dst: the
// engine's window expanded with its stored tags, or — for a snippet
// built by hand, or whose Text no longer matches its window — Text
// tagged afresh. Either way the result equals
// nlp.Tagger.TagAppend(dst, s.Text).
func (s Snippet) Tokens(dst []nlp.TaggedToken) []nlp.TaggedToken {
	v := &s.view
	if v.fi == nil || v.text != s.Text {
		var tg nlp.Tagger
		return tg.TagAppend(dst, s.Text)
	}
	return v.fi.appendWindow(dst, s.Text, v.lo, v.hi, v.tags)
}

// Tagged reports whether the snippet carries the tags of the engine
// window it was cut from, so that Tokens expands them instead of
// tagging Text.
func (s Snippet) Tagged() bool { return s.view.fi != nil && s.view.text == s.Text }

// appendTags appends to tags the final tag (nlp.TagCode) of every
// token of text, the text of the index window [lo, hi): its tokens
// with their initial tags, then the contextual rules over the window,
// as TagAppend tags text. toks is the token scratch.
func (f *FrozenIndex) appendTags(tags []byte, toks *[]nlp.TaggedToken, text string, lo, hi uint32) []byte {
	tt := f.appendWindow((*toks)[:0], text, lo, hi, "")
	nlp.ApplyRules(tt)
	for _, t := range tt {
		tags = append(tags, byte(t.Tag.Code()))
	}
	*toks = tt
	return tags
}

// appendWindow appends to dst the tokens of text, the text of the
// index window [lo, hi): exactly the tokens nlp.TokenScanner yields on
// text, built from the index instead of scanned. They are the window's
// index tokens, with norms from the term table (or the text itself,
// when TokTag says it is its own norm), and the punctuation
// between them, re-scanned from the gaps. Pos is relative to text. The
// tokens carry the tags in final, one nlp.TagCode per token, or their
// initial tags when final is empty.
func (f *FrozenIndex) appendWindow(dst []nlp.TaggedToken, text string, lo, hi uint32, final string) []nlp.TaggedToken {
	if lo >= hi {
		return dst
	}
	n := len(dst)
	starts, ends := f.d.TokStart[lo:hi], f.d.TokEnd[lo:hi:hi]
	terms, tags := f.d.TokTerm[lo:hi:hi], f.d.TokTag[lo:hi:hi]
	norms := f.terms.Terms()
	base := starts[0]
	for j, s := range starts {
		start := int(s - base)
		if j > 0 {
			// Most gaps are one space, which holds no token.
			if prev := int(ends[j-1] - base); start-prev != 1 || text[prev] != ' ' {
				m := len(dst)
				dst = appendPunct(dst, text, prev, start)
				if final != "" {
					for i := m; i < len(dst); i++ {
						dst[i].Tag = nlp.TagCode(final[i-n]).Tag()
					}
				}
			}
		}
		b := tags[j]
		word := text[start:int(ends[j]-base)]
		norm := word
		if b&tokOwnNorm == 0 {
			norm = norms[terms[j]]
		}
		kind := nlp.Word
		if b&tokNumber != 0 {
			kind = nlp.Number
		}
		var tag nlp.Tag
		if final != "" {
			tag = nlp.TagCode(final[len(dst)-n]).Tag()
		} else {
			tag = nlp.TagCode(b &^ tokFlags).Tag()
		}
		dst = append(dst, nlp.TaggedToken{Token: nlp.Token{Text: word, Norm: norm, Kind: kind, Pos: start}, Tag: tag})
	}
	return dst
}

// punctTag is the initial tag of every punctuation token.
var punctTag = nlp.InitialTag(nlp.Token{Kind: nlp.Punct})

// appendPunct appends the tokens of text[i:end], a gap between two
// index tokens. A gap holds no letter and no digit: either would start
// a word or number token, and the index keeps every one. So each rune
// of it that is not space is a one-rune punctuation token, decoded as
// the scanner decodes it, with the initial tag of punctuation.
func appendPunct(dst []nlp.TaggedToken, text string, i, end int) []nlp.TaggedToken {
	for i < end {
		r, w := rune(text[i]), 1
		var space bool
		switch {
		case r >= utf8.RuneSelf:
			r, w = utf8.DecodeRuneInString(text[i:])
			space = unicode.IsSpace(r)
		case r <= ' ':
			space = r == ' ' || '\t' <= r && r <= '\r'
		}
		if !space {
			p := text[i : i+w]
			dst = append(dst, nlp.TaggedToken{Token: nlp.Token{Text: p, Norm: p, Kind: nlp.Punct, Pos: i}, Tag: punctTag})
		}
		i += w
	}
	return dst
}
