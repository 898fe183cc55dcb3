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
	// An empty first quoted phrase passes the phrase role on.
	`"" "a"`,
	`"+ ," "authors such as" "b c" +book`,
	"\"\u0130STANBUL \u212aelvin\" +AUTHORS",
}

// internAll is the compiled form's oracle: ParseQuery's words resolved
// one string at a time against a frozen table, nil for none.
func internAll(terms *nlp.TermTable, words []string) []uint32 {
	if len(words) == 0 {
		return nil
	}
	ids := make([]uint32, len(words))
	for i, w := range words {
		ids[i] = terms.Intern(w)
	}
	return ids
}

// compileReference is Compile's oracle: ParseQuery, then internAll.
func compileReference(e *Engine, q string) CompiledQuery {
	terms := e.Index().terms
	pq := ParseQuery(q)
	return CompiledQuery{Phrase: internAll(terms, pq.Phrase), Required: internAll(terms, pq.Required)}
}

// fuzzQueryEngine is the small corpus FuzzParseQuery compiles against.
func fuzzQueryEngine() *Engine {
	e := NewEngine()
	e.MinLatency, e.MaxLatency = 0, 0
	e.Add("a", "authors such as Jane Austen, Mark Twain, and Leo Tolstoy wrote books")
	e.Add("b", "book title isbn price publisher format")
	e.Add("c", "such as a b a b repeated phrase material such as \u0130stanbul \u212aelvin")
	return e
}

func TestCompileMatchesReference(t *testing.T) {
	e := fuzzQueryEngine()
	for _, q := range parseCases {
		if got, want := e.Compile(q), compileReference(e, q); !reflect.DeepEqual(got, want) {
			t.Errorf("Compile(%q) = %+v, reference %+v", q, got, want)
		}
	}
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
// reference implementation, that Compile equals ParseQuery+internAll,
// and that the compiled term-ID form answers every query exactly like
// the string form.
func FuzzParseQuery(f *testing.F) {
	for _, q := range parseCases {
		f.Add(q)
	}
	e := fuzzQueryEngine()

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
		if ref := compileReference(e, q); !reflect.DeepEqual(cq, ref) {
			t.Fatalf("Compile(%q) = %+v, ParseQuery+internAll %+v", q, cq, ref)
		}
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
		if nh, nc := e.NumHits(q), e.Index().count(&cq); nh != nc {
			t.Fatalf("NumHits(%q) = %d, compiled = %d", q, nh, nc)
		}
		if sh, scm := e.Search(q, 5), e.search(cq, 5); !reflect.DeepEqual(sh, scm) {
			t.Fatalf("Search(%q) = %+v, compiled = %+v", q, sh, scm)
		}
	})
}
