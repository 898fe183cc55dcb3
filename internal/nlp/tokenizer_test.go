package nlp

import (
	"reflect"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeWords(t *testing.T) {
	toks := Tokenize("Departure city")
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2: %+v", len(toks), toks)
	}
	if toks[0].Text != "Departure" || toks[0].Norm != "departure" {
		t.Errorf("token 0 = %+v", toks[0])
	}
	if toks[1].Norm != "city" {
		t.Errorf("token 1 = %+v", toks[1])
	}
}

func TestTokenizeHyphenApostrophe(t *testing.T) {
	toks := Tokenize("first-class o'hare")
	if len(toks) != 2 {
		t.Fatalf("got %d tokens, want 2: %+v", len(toks), toks)
	}
	if toks[0].Text != "first-class" {
		t.Errorf("token 0 = %q", toks[0].Text)
	}
	if toks[1].Text != "o'hare" {
		t.Errorf("token 1 = %q", toks[1].Text)
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"$15,200", []string{"$15,200"}},
		{"3.14 is pi", []string{"3.14", "is", "pi"}},
		{"price: $9.99", []string{"price", ":", "$9.99"}},
		{"1995", []string{"1995"}},
		{"10,000 miles", []string{"10,000", "miles"}},
	}
	for _, c := range cases {
		var got []string
		for _, tok := range Tokenize(c.in) {
			got = append(got, tok.Text)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeNumberKind(t *testing.T) {
	toks := Tokenize("$15,200 price")
	if toks[0].Kind != Number {
		t.Errorf("$15,200 kind = %v, want Number", toks[0].Kind)
	}
	if toks[1].Kind != Word {
		t.Errorf("price kind = %v, want Word", toks[1].Kind)
	}
}

func TestTokenizePunctuation(t *testing.T) {
	toks := Tokenize("cities such as: Boston, Chicago.")
	var puncts int
	for _, tok := range toks {
		if tok.Kind == Punct {
			puncts++
		}
	}
	if puncts != 3 { // ":", ",", "."
		t.Errorf("got %d punct tokens, want 3: %+v", puncts, toks)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	text := "from  Chicago"
	toks := Tokenize(text)
	for _, tok := range toks {
		if got := text[tok.Pos : tok.Pos+len(tok.Text)]; got != tok.Text {
			t.Errorf("offset %d: slice %q != token %q", tok.Pos, got, tok.Text)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if toks := Tokenize(""); len(toks) != 0 {
		t.Errorf("Tokenize(\"\") = %v", toks)
	}
	if toks := Tokenize("   \t\n "); len(toks) != 0 {
		t.Errorf("Tokenize(whitespace) = %v", toks)
	}
}

func TestWords(t *testing.T) {
	got := Words("From City: Boston!")
	want := []string{"from", "city", "boston"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
}

func TestIsCapitalized(t *testing.T) {
	if !(Token{Text: "Boston"}).IsCapitalized() {
		t.Error("Boston should be capitalized")
	}
	if (Token{Text: "boston"}).IsCapitalized() {
		t.Error("boston should not be capitalized")
	}
	if (Token{Text: ""}).IsCapitalized() {
		t.Error("empty token should not be capitalized")
	}
}

// Property: tokenizing never loses letter content — every letter in the
// input appears in some token.
func TestTokenizePreservesLetters(t *testing.T) {
	f := func(s string) bool {
		var inLetters, outLetters int
		for _, r := range s {
			if unicode.IsLetter(r) {
				inLetters++
			}
		}
		for _, tok := range Tokenize(s) {
			for _, r := range tok.Text {
				if unicode.IsLetter(r) {
					outLetters++
				}
			}
		}
		return inLetters == outLetters
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: token offsets are strictly increasing and in range.
func TestTokenizeOffsetsMonotonic(t *testing.T) {
	f := func(s string) bool {
		prev := -1
		for _, tok := range Tokenize(s) {
			if tok.Pos <= prev || tok.Pos >= len(s) && len(s) > 0 {
				return false
			}
			prev = tok.Pos
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
