package nlp

import (
	"reflect"
	"strings"
	"testing"
)

// TestPackedTokenSize pins the per-token footprint of a TaggedText:
// a search cache holds every served snippet packed, so growth here is
// heap growth on warm runs. Ordinary text packs into three bytes per
// token plus the lower-cased bytes of its capitalized words.
func TestPackedTokenSize(t *testing.T) {
	var tg Tagger
	tt := tg.Pack(benchSentence)
	n := len(tg.TagAppend(nil, benchSentence))
	if len(tt.enc) != 3*n {
		t.Errorf("%d tokens packed into %d bytes, want %d", n, len(tt.enc), 3*n)
	}
	if want := "findbostonchicagonewyork"; tt.norms != want {
		t.Errorf("stored norms %q, want %q", tt.norms, want)
	}
}

// TestPackedTagsCoverLexicon requires every lexicon tag, every rule
// tag and the whole packed inventory to round-trip through the packed
// tag index; the tags morphology and token kinds assign are inventory
// constants.
func TestPackedTagsCoverLexicon(t *testing.T) {
	check := func(tag Tag) {
		t.Helper()
		if got := packedTags[tagIndex(tag)]; got != tag {
			t.Errorf("tag %q packs to %q", tag, got)
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
	for _, tag := range packedTags {
		check(tag)
	}
}

// FuzzPackedTags requires packing and expanding to reproduce TagAppend
// on any input. The seeds include invalid UTF-8 and two letters whose
// lower-case form has a different byte length (U+0130 and the Kelvin
// sign U+212A), which a norm stored by offset into the text would get
// wrong.
func FuzzPackedTags(f *testing.F) {
	for _, s := range []string{
		"", "   ", "\xff\xfe", "a\xffb \xc0", "\u0130stanbul", "\u212a", "K\u212aK",
		"\u0130stanbul and other Cities", benchSentence, "ǅemal ΣΑΣ",
		"From: Boston, Chicago, and LAX.", "to depart", "that the", "is located",
		// Gaps and lengths of 128 bytes and more take multi-byte varints.
		strings.Repeat("Ab", 100) + strings.Repeat(" ", 300) + "x " + strings.Repeat("9", 130),
	} {
		f.Add(s)
	}
	var tg Tagger
	prefix := tg.TagAppend(nil, "Departure city")
	f.Fuzz(func(t *testing.T, s string) {
		// Packing lowers words with AppendLower; PMI query keys rely on
		// it matching strings.ToLower byte for byte on any input.
		if got, want := string(AppendLower(nil, s)), strings.ToLower(s); got != want {
			t.Fatalf("AppendLower(%q) = %q, want %q", s, got, want)
		}
		tt := tg.Pack(s)
		if tt.Text() != s {
			t.Fatalf("Pack(%q).Text() = %q", s, tt.Text())
		}
		got := tt.AppendTokens(nil)
		want := tg.TagAppend(nil, s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Pack(%q) expands to\n%v\nwant\n%v", s, got, want)
		}
		// Expansion appends after, and never rewrites, existing tokens.
		got = tt.AppendTokens(append([]TaggedToken(nil), prefix...))
		if !reflect.DeepEqual(got, append(append([]TaggedToken(nil), prefix...), want...)) {
			t.Fatalf("Pack(%q): AppendTokens after a prefix rewrote it", s)
		}
	})
}

func BenchmarkPack(b *testing.B) {
	b.ReportAllocs()
	var tg Tagger
	var buf PackBuffer
	for i := 0; i < b.N; i++ {
		tg.PackWith(&buf, benchSentence)
	}
}

func BenchmarkAppendTokens(b *testing.B) {
	b.ReportAllocs()
	var tg Tagger
	tt := tg.Pack(benchSentence)
	var dst []TaggedToken
	for i := 0; i < b.N; i++ {
		dst = tt.AppendTokens(dst[:0])
	}
}
