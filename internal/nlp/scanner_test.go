package nlp

import (
	"reflect"
	"testing"
)

var scannerInputs = []string{
	"",
	"   ",
	"Departure city",
	"Class of service:",
	"first-class and o'hare",
	"$15,200 or 3.5 miles (one-way)",
	"cities such as Boston, Chicago, and LAX.",
	"München–Köln costs €42",
	"bad\xffutf8 still advances",
	"a, b; c",
	"don't split 'quoted' words",
	"1,000,000 passengers",
	// The contextual rules retag these: "that" before a determiner,
	// "book" after "to".
	"that the fare",
	"flights to book",
}

func TestTokenScannerMatchesTokenize(t *testing.T) {
	for _, in := range scannerInputs {
		want := Tokenize(in)
		var got []Token
		var sc TokenScanner
		for sc.Reset(in); sc.Scan(); {
			got = append(got, sc.Token())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("TokenScanner(%q) = %v, Tokenize = %v", in, got, want)
		}
		if sc.Scan() {
			t.Errorf("Scan after exhaustion returned true for %q", in)
		}
	}
}

// tagReference is the two-pass tagger the scanner path replaced:
// tokenize the whole text, then tag the token slice. It is the oracle
// TagAppend must match.
func tagReference(text string) []TaggedToken {
	tokens := Tokenize(text)
	out := make([]TaggedToken, len(tokens))
	for i, t := range tokens {
		out[i] = TaggedToken{Token: t, Tag: initialTag(t)}
	}
	applyRules(out)
	return out
}

func TestTagAppendMatchesTag(t *testing.T) {
	var tg Tagger
	buf := make([]TaggedToken, 0, 16)
	for _, in := range scannerInputs {
		want := tagReference(in)
		buf = tg.TagAppend(buf[:0], in)
		if len(buf) != len(want) {
			t.Fatalf("TagAppend(%q) len %d, reference len %d", in, len(buf), len(want))
		}
		for i := range buf {
			if buf[i] != want[i] {
				t.Errorf("TagAppend(%q)[%d] = %+v, want %+v", in, i, buf[i], want[i])
			}
		}
	}
}

func TestTagAppendIsolatesContext(t *testing.T) {
	// A trailing "to" in the buffer must not trigger the TO->VB rule on
	// the first token of the next text.
	var tg Tagger
	buf := tg.TagAppend(nil, "to")
	mark := len(buf)
	buf = tg.TagAppend(buf, "return flight")
	want := tagReference("return flight")
	if !reflect.DeepEqual(buf[mark:], want) {
		t.Errorf("appended window %+v, want %+v (context leaked across TagAppend calls)", buf[mark:], want)
	}
}
