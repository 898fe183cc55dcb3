package nlp

import (
	"reflect"
	"testing"
)

func tagsOf(text string) []Tag {
	var tg Tagger
	tt := tg.Tag(text)
	out := make([]Tag, len(tt))
	for i, t := range tt {
		out[i] = t.Tag
	}
	return out
}

func TestTagDepartureCity(t *testing.T) {
	got := tagsOf("Departure city")
	if len(got) != 2 || !got[0].IsNoun() || got[1] != NN {
		t.Errorf("tags = %v", got)
	}
}

func TestTagFromCity(t *testing.T) {
	got := tagsOf("From city")
	if got[0] != IN || got[1] != NN {
		t.Errorf("tags = %v, want [IN NN]", got)
	}
}

func TestTagDepartFrom(t *testing.T) {
	got := tagsOf("Depart from")
	if got[0] != VB || got[1] != IN {
		t.Errorf("tags = %v, want [VB IN]", got)
	}
}

func TestTagReturnDate(t *testing.T) {
	// "return" must act as a noun modifier before "date".
	got := tagsOf("Return date")
	if got[0] != NN || got[1] != NN {
		t.Errorf("tags = %v, want [NN NN]", got)
	}
}

func TestTagToReturn(t *testing.T) {
	// After infinitive "to", "return" is a verb.
	got := tagsOf("to return")
	if got[0] != TO || got[1] != VB {
		t.Errorf("tags = %v, want [TO VB]", got)
	}
}

func TestTagClassOfService(t *testing.T) {
	got := tagsOf("Class of service")
	want := []Tag{NN, IN, NN}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tags = %v, want %v", got, want)
			break
		}
	}
}

func TestTagConjunctionLabel(t *testing.T) {
	got := tagsOf("First name or last name")
	want := []Tag{JJ, NN, CC, JJ, NN}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tags = %v, want %v", got, want)
		}
	}
}

func TestTagNumbersAndPunct(t *testing.T) {
	got := tagsOf("price: $15,200")
	if got[0] != NN || got[1] != SYM || got[2] != CD {
		t.Errorf("tags = %v, want [NN SYM CD]", got)
	}
}

func TestTagUnknownCapitalized(t *testing.T) {
	got := tagsOf("Mitsubishi")
	if got[0] != NNP {
		t.Errorf("unknown capitalized word tagged %v, want NNP", got[0])
	}
}

func TestTagMorphology(t *testing.T) {
	cases := map[string]Tag{
		"quickly":    RB,
		"remodeling": VBG,
		"renovated":  VBN,
		"spacious":   JJ,
		"gadgets":    NNS,
		"widget":     NN,
	}
	for w, want := range cases {
		if got := tagsOf(w)[0]; got != want {
			t.Errorf("tag(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestTagCopulaSentence(t *testing.T) {
	got := tagsOf("the author of the book is")
	want := []Tag{DT, NN, IN, DT, NN, VBZ}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tags = %v, want %v", got, want)
		}
	}
}

func TestTagEmpty(t *testing.T) {
	if got := tagsOf(""); len(got) != 0 {
		t.Errorf("tags of empty = %v", got)
	}
}

func TestTagLexiconSecondaryAdmissibility(t *testing.T) {
	// A contextual rule can only retag to a tag the lexicon admits: "the
	// city is" must keep "city" a noun even after TO-like contexts.
	got := tagsOf("to city")
	if got[1] != NN {
		t.Errorf("to city = %v, want city NN (lexicon blocks VB)", got)
	}
}

func TestTagPrepositionInventory(t *testing.T) {
	for _, w := range []string{"from", "of", "in", "near", "within", "between", "per", "via"} {
		if got := tagsOf(w)[0]; got != IN {
			t.Errorf("tag(%q) = %v, want IN", w, got)
		}
	}
}

func TestTagConjunctions(t *testing.T) {
	got := tagsOf("make and model")
	if got[1] != CC {
		t.Errorf("tags = %v, want CC for and", got)
	}
}

func TestTagHyphenatedUnknown(t *testing.T) {
	got := tagsOf("well-maintained property")
	if len(got) != 2 {
		t.Fatalf("tags = %v", got)
	}
	if !got[1].IsNoun() {
		t.Errorf("property tagged %v", got[1])
	}
}

func TestTagIsNounIsVerbHelpers(t *testing.T) {
	if !NN.IsNoun() || !NNS.IsNoun() || !NNP.IsNoun() {
		t.Error("noun tags not recognized")
	}
	if JJ.IsNoun() || IN.IsNoun() {
		t.Error("non-nouns recognized as nouns")
	}
	for _, v := range []Tag{VB, VBZ, VBG, VBN, VBD} {
		if !v.IsVerb() {
			t.Errorf("%v not a verb", v)
		}
	}
	if NN.IsVerb() {
		t.Error("NN recognized as verb")
	}
}

// TestTagCodesCoverLexicon requires every lexicon tag, every rule tag
// and the whole inventory to round-trip through TagCode; the tags
// morphology and token kinds assign are inventory constants.
func TestTagCodesCoverLexicon(t *testing.T) {
	check := func(tag Tag) {
		t.Helper()
		if got := tag.Code().Tag(); got != tag {
			t.Errorf("tag %q round-trips to %q", tag, got)
		}
	}
	for _, tags := range lexicon {
		for _, tag := range tags {
			check(tag)
		}
	}
	for _, r := range contextualRules {
		check(r.From)
		check(r.To)
	}
	for _, tag := range tagInventory {
		check(tag)
	}
}

// TestInitialTagThenRules pins the split the search engine relies on:
// InitialTag on every token, then ApplyRules over the sequence, is
// TagAppend.
func TestInitialTagThenRules(t *testing.T) {
	var tg Tagger
	for _, in := range scannerInputs {
		var got []TaggedToken
		for _, tok := range Tokenize(in) {
			got = append(got, TaggedToken{Token: tok, Tag: InitialTag(tok)})
		}
		ApplyRules(got)
		if want := tg.TagAppend(nil, in); !reflect.DeepEqual(got, want) {
			t.Errorf("InitialTag+ApplyRules(%q) = %v, want %v", in, got, want)
		}
	}
}
