package surfaceweb

import (
	"reflect"
	"strings"
	"testing"

	"webiq/internal/nlp"
)

// parseQueryReference is the original splice-based parser, kept
// verbatim as the oracle for the single-scan rewrite.
func parseQueryReference(q string) Query {
	var out Query
	rest := q
	for {
		start := strings.IndexByte(rest, '"')
		if start < 0 {
			break
		}
		end := strings.IndexByte(rest[start+1:], '"')
		if end < 0 {
			break
		}
		phrase := rest[start+1 : start+1+end]
		if len(out.Phrase) == 0 {
			out.Phrase = nlp.Words(phrase)
		} else {
			out.Required = append(out.Required, nlp.Words(phrase)...)
		}
		rest = rest[:start] + " " + rest[start+1+end+1:]
	}
	for _, f := range strings.Fields(rest) {
		f = strings.TrimPrefix(f, "+")
		out.Required = append(out.Required, nlp.Words(f)...)
	}
	return out
}

var parseCases = []string{
	``,
	`   `,
	`"authors such as" +book +title +isbn`,
	`"unbalanced`,
	`unbalanced"`,
	`""`,
	`"" ""`,
	`""""`,
	`"a""b"`,
	`+`,
	`+ + +`,
	`++double`,
	`"phrase one" middle "phrase two" tail`,
	`pre"a b"post`,
	`" leading space phrase "`,
	`+"quoted plus"`,
	`a  b`,
	`"»unicode«" +café`,
	"tab\tand\nnewline",
	`"$15,200 or 3.5"`,
	`"`,
	`"""`,
}

func TestParseQueryMatchesReference(t *testing.T) {
	for _, q := range parseCases {
		got, want := ParseQuery(q), parseQueryReference(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseQuery(%q) = %+v, reference %+v", q, got, want)
		}
	}
}

// FuzzParseQuery checks that the parser never panics, agrees with the
// reference implementation, and that the compiled term-ID form answers
// every query exactly like the string form.
func FuzzParseQuery(f *testing.F) {
	for _, q := range parseCases {
		f.Add(q)
	}
	e := NewEngine()
	e.MinLatency, e.MaxLatency = 0, 0
	e.Add("a", "authors such as Jane Austen, Mark Twain, and Leo Tolstoy wrote books")
	e.Add("b", "book title isbn price publisher format")
	e.Add("c", "such as a b a b repeated phrase material such as")

	f.Fuzz(func(t *testing.T, q string) {
		got := ParseQuery(q)
		want := parseQueryReference(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseQuery(%q) = %+v, reference %+v", q, got, want)
		}
		for _, w := range got.Phrase {
			if w == "" {
				t.Fatalf("empty phrase word from %q", q)
			}
		}
		for _, w := range got.Required {
			if w == "" {
				t.Fatalf("empty required term from %q", q)
			}
		}

		// Round-trip: the compiled query must preserve the parsed
		// terms and the string/compiled execution paths must agree.
		cq := e.Compile(q)
		if len(cq.Phrase) != len(want.Phrase) || len(cq.Required) != len(want.Required) {
			t.Fatalf("Compile(%q) shape %d/%d, parsed %d/%d",
				q, len(cq.Phrase), len(cq.Required), len(want.Phrase), len(want.Required))
		}
		// A word the corpus lacks compiles to NoTerm; every other ID
		// names its word.
		checkTerm := func(kind string, i int, id uint32, w string) {
			if known, ok := e.Terms().Lookup(w); ok && id != known || !ok && id != nlp.NoTerm {
				t.Fatalf("%s term %d (%q) compiled to %d", kind, i, w, id)
			}
		}
		for i, id := range cq.Phrase {
			checkTerm("phrase", i, id, want.Phrase[i])
		}
		for i, id := range cq.Required {
			checkTerm("required", i, id, want.Required[i])
		}
		if nh, nc := e.NumHits(q), e.NumHitsCompiled(cq, q); nh != nc {
			t.Fatalf("NumHits(%q) = %d, compiled = %d", q, nh, nc)
		}
		if sh, scm := e.Search(q, 5), e.SearchCompiled(cq, q, 5); !reflect.DeepEqual(sh, scm) {
			t.Fatalf("Search(%q) = %+v, compiled = %+v", q, sh, scm)
		}

		// Key canonicalization must be stable under recompilation.
		if k1, k2 := cq.Key(), e.Compile(q).Key(); k1 != k2 {
			t.Fatalf("Key not stable for %q: %q vs %q", q, k1, k2)
		}
	})
}

func TestCompiledKeyCanonicalizes(t *testing.T) {
	e := NewEngine()
	same := [][]string{
		{`a b`, `a  b`, ` a b `, `+a +b`, `b a`, "a\tb"},
		{`"a b" c`, `"a b"  +c`},
	}
	for _, group := range same {
		want := e.Compile(group[0]).Key()
		for _, q := range group[1:] {
			if got := e.Compile(q).Key(); got != want {
				t.Errorf("Key(%q) = %q, want %q (same as %q)", q, got, want, group[0])
			}
		}
	}
	diff := [][2]string{
		{`"a b"`, `"b a"`},   // phrase order matters
		{`a b`, `a b b`},     // required duplicates matter
		{`"a b" c`, `a b c`}, // phrase vs bare terms
		{`a`, `b`},
	}
	for _, p := range diff {
		if e.Compile(p[0]).Key() == e.Compile(p[1]).Key() {
			t.Errorf("Key(%q) == Key(%q), want distinct", p[0], p[1])
		}
	}
}
