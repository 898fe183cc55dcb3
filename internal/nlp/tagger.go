package nlp

import "strings"

// TaggedToken is a token together with its part-of-speech tag.
type TaggedToken struct {
	Token
	Tag Tag
}

// condKind enumerates the contextual conditions a transformation rule may
// test, following the rule templates of Brill's tagger.
type condKind int

const (
	condPrevTag condKind = iota
	condNextTag
	condPrevWord
	condNextWord
	condPrevTagIsVerb
	condNextTagIsNoun
)

// rule is a Brill-style contextual transformation: if a token currently
// carries From and the condition holds, retag it To — provided the
// lexicon admits To for that word.
type rule struct {
	From Tag
	To   Tag
	Cond condKind
	Arg  string // word or tag argument, depending on Cond
}

// contextualRules is the transformation-rule list applied in order, once,
// after initial tagging. The list is small because interface labels and
// corpus snippets are short, syntactically simple strings; each rule
// addresses an ambiguity class that actually occurs in that material.
var contextualRules = []rule{
	// "to depart", "to return": base verbs after the infinitive marker.
	{From: NN, To: VB, Cond: condPrevTag, Arg: string(TO)},
	// "return from", "check in": noun-lexicon words act as verbs before a
	// bare preposition at the start of a verb-phrase label only when they
	// head the phrase; handled by the chunker instead, so no rule here.

	// Verb forms acting as noun modifiers: "used cars", "preferred
	// airlines" keep VBN/JJ, but a base verb directly before a noun in a
	// label is a modifier ("search radius" stays NN via lexicon order).
	{From: VB, To: NN, Cond: condNextTagIsNoun},

	// "is located", "are offered": past participles after a copula.
	{From: VBD, To: VBN, Cond: condPrevTagIsVerb},

	// Determiner/preposition ambiguity of "that": preposition before a
	// determiner or pronoun ("that the ..."), determiner otherwise.
	{From: DT, To: IN, Cond: condNextTag, Arg: string(DT)},

	// "one way": cardinal before noun behaves as a modifier; keep CD —
	// the NP pattern accepts CD modifiers, so no rule needed.
}

// Tagger assigns part-of-speech tags using a lexicon for the initial pass
// and Brill-style contextual transformation rules for correction. The
// zero value is ready to use.
type Tagger struct{}

// Tag tokenizes text and returns the tagged tokens.
func (tg Tagger) Tag(text string) []TaggedToken {
	return tg.TagTokens(Tokenize(text))
}

// TagTokens tags an already-tokenized input.
func (tg Tagger) TagTokens(tokens []Token) []TaggedToken {
	out := make([]TaggedToken, len(tokens))
	for i, t := range tokens {
		out[i] = TaggedToken{Token: t, Tag: initialTag(t)}
	}
	applyRules(out)
	return out
}

// TagAppend tokenizes and tags text, appending the result to dst and
// returning the extended slice. It produces exactly the tokens Tag
// would, but reuses dst's capacity, so a caller tagging many snippets
// can hold one buffer and pass dst[:0] each time. Contextual rules see
// only the tokens of text, never earlier contents of dst.
func (tg Tagger) TagAppend(dst []TaggedToken, text string) []TaggedToken {
	start := len(dst)
	var sc TokenScanner
	for sc.Reset(text); sc.Scan(); {
		dst = append(dst, TaggedToken{Token: sc.Token()})
	}
	tagAll(dst[start:])
	return dst
}

// tagAll tags a token sequence in place: the initial lexicon or
// morphology tag of every token, then the contextual rules.
func tagAll(tt []TaggedToken) {
	for i := range tt {
		tt[i].Tag = initialTag(tt[i].Token)
	}
	applyRules(tt)
}

// initialTag assigns the most likely tag from the lexicon, falling back
// to morphological heuristics for unknown words.
func initialTag(t Token) Tag {
	switch t.Kind {
	case Number:
		return CD
	case Punct:
		return SYM
	}
	if tags := lexicon[t.Norm]; len(tags) > 0 {
		return tags[0]
	}
	return morphTag(t)
}

// morphTag guesses the tag of an out-of-lexicon word from its shape, in
// the manner of Brill's lexical rules.
func morphTag(t Token) Tag {
	w := t.Norm
	switch {
	case strings.HasSuffix(w, "ly") && len(w) > 3:
		return RB
	case strings.HasSuffix(w, "ing") && len(w) > 4:
		return VBG
	case strings.HasSuffix(w, "ed") && len(w) > 3:
		return VBN
	case strings.HasSuffix(w, "ous") || strings.HasSuffix(w, "ful") ||
		strings.HasSuffix(w, "ive") || strings.HasSuffix(w, "able") ||
		strings.HasSuffix(w, "ible") || strings.HasSuffix(w, "al") && len(w) > 4:
		return JJ
	case LooksPlural(w):
		return NNS
	case t.IsCapitalized():
		return NNP
	default:
		return NN
	}
}

// applyRules runs the contextual rules over the sequence in order.
func applyRules(tt []TaggedToken) {
	for i := range tt {
		for _, r := range contextualRules {
			if tt[i].Tag != r.From {
				continue
			}
			if !ruleMatches(tt, i, r) {
				continue
			}
			if tt[i].Kind == Word && !allowsTag(tt[i].Norm, r.To) {
				continue
			}
			tt[i].Tag = r.To
		}
	}
}

func ruleMatches(tt []TaggedToken, i int, r rule) bool {
	switch r.Cond {
	case condPrevTag:
		return i > 0 && tt[i-1].Tag == Tag(r.Arg)
	case condNextTag:
		return i+1 < len(tt) && tt[i+1].Tag == Tag(r.Arg)
	case condPrevWord:
		return i > 0 && tt[i-1].Norm == r.Arg
	case condNextWord:
		return i+1 < len(tt) && tt[i+1].Norm == r.Arg
	case condPrevTagIsVerb:
		return i > 0 && tt[i-1].Tag.IsVerb()
	case condNextTagIsNoun:
		return i+1 < len(tt) && tt[i+1].Tag.IsNoun()
	}
	return false
}
