package surfaceweb_test

import (
	"reflect"
	"strings"
	"testing"

	"webiq/internal/kb"
	"webiq/internal/nlp"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
)

// checkViews requires, for every document of the engine and every
// token of it, the snippet a phrase match at that token yields at each
// radius to expand (Snippet.Tokens) to exactly TagAppend of its text:
// every window edge falls on every token. It returns the number of
// windows checked.
func checkViews(t *testing.T, e *surfaceweb.Engine, radii ...int) int {
	t.Helper()
	fi := e.Index()
	var tg nlp.Tagger
	var toks, got, want []nlp.TaggedToken
	windows := 0
	for doc := 0; doc < fi.NumDocs(); doc++ {
		for _, r := range radii {
			for pos := 0; pos < fi.DocTokens(doc); pos++ {
				s := fi.SnippetAround(doc, pos, r, &toks)
				if !s.Tagged() {
					t.Fatalf("doc %d pos %d: snippet without its view", doc, pos)
				}
				got, want = s.Tokens(got[:0]), tg.TagAppend(want[:0], s.Text)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("doc %d pos %d radius %d: %q expands to\n%v\nwant\n%v", doc, pos, r, s.Text, got, want)
				}
				windows++
			}
		}
	}
	return windows
}

// TestSnippetViewsMatchTaggingColdCorpus runs checkViews over every
// document of the seed-1 acquisition corpus — the five paper domains
// and the twenty synthetic sweep domains in one engine — at snippet
// radius 10 and 2.
func TestSnippetViewsMatchTaggingColdCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("tags every window of a half-million-token corpus")
	}
	e := surfaceweb.NewEngine()
	cfg := surfaceweb.DefaultCorpusConfig()
	cfg.Seed = 1
	surfaceweb.BuildCorpus(e, kb.Domains(), cfg)
	for _, sc := range synth.Sweep(20, 1) {
		surfaceweb.BuildCorpus(e, []*kb.Domain{sc.Domain}, sc.CorpusConfig(1))
	}
	if n := checkViews(t, e, 10, 2); n == 0 {
		t.Fatal("no windows checked")
	}
}

// viewTexts are documents whose tags and norms a view could get wrong:
// words whose lower-case form changes byte length (U+0130, the Kelvin
// sign U+212A), invalid UTF-8, '$' numbers and punctuation runs
// between words, and the contextual rules firing at window edges.
var viewTexts = []string{
	"", "   ", "\xff\xfe", "a\xffb \xc0", "\u0130stanbul", "\u212a", "K\u212aK",
	"\u0130stanbul and other Cities", "Find cheap flights from departure cities such as Boston, " +
		"Chicago, and New York to over 1,200 destinations for $15,200 or less (one-way).",
	"\u01c5emal \u03a3\u0391\u03a3", "From: Boston, Chicago, and LAX.", "to depart", "that the", "is located",
	strings.Repeat("Ab", 100) + strings.Repeat(" ", 300) + "x " + strings.Repeat("9", 130),
}

// TestSnippetViewsMatchTaggingSpecialText runs checkViews over
// viewTexts and one document mixing their hazards, at every radius from
// 0 to 2 and at 10.
func TestSnippetViewsMatchTaggingSpecialText(t *testing.T) {
	e := surfaceweb.NewEngine()
	for _, text := range viewTexts {
		e.Add("t", text)
	}
	e.Add("t", "\u0130STANBUL \u212aELVIN such as Kelvin, \u0130zmir; to return -- $5 ... that the K\u212a")
	if n := checkViews(t, e, 10, 2, 1, 0); n == 0 {
		t.Fatal("no windows checked")
	}
}

// FuzzSnippetView requires every window of a one-document engine to
// expand to TagAppend of its text, at radius 2 and 0, and AppendLower —
// which folds query words for lookup — to match strings.ToLower byte
// for byte.
func FuzzSnippetView(f *testing.F) {
	for _, s := range viewTexts {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := string(nlp.AppendLower(nil, s)), strings.ToLower(s); got != want {
			t.Fatalf("AppendLower(%q) = %q, want %q", s, got, want)
		}
		e := surfaceweb.NewEngine()
		e.Add("t", s)
		checkViews(t, e, 2, 0)
	})
}
