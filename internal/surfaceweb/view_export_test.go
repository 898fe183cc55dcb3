package surfaceweb

import "webiq/internal/nlp"

// SnippetAround returns the snippet of document doc that a one-word
// phrase match at the document's token pos yields at snippet radius
// radius — the window the engine would serve, with the tags it would
// store — for tests outside the package. toks is token scratch.
func (f *FrozenIndex) SnippetAround(doc, pos, radius int, toks *[]nlp.TaggedToken) Snippet {
	base := f.d.DocTokOff[doc]
	n := int(f.d.DocTokOff[doc+1] - base)
	lo := uint32(base + uint64(max(0, pos-radius)))
	hi := uint32(base + uint64(min(n, pos+1+radius)))
	text := f.windowText(doc, lo, hi)
	tags := f.appendTags(nil, toks, text, lo, hi)
	return Snippet{DocID: doc, Text: text, view: snippetView{fi: f, lo: lo, hi: hi, text: text, tags: string(tags)}}
}

// DocTokens returns the number of index tokens of document doc.
func (f *FrozenIndex) DocTokens(doc int) int {
	return int(f.d.DocTokOff[doc+1] - f.d.DocTokOff[doc])
}
