package deepweb

import (
	"strings"
	"testing"

	"webiq/internal/resilience"
)

// refAnalyzeResponse is AnalyzeResponse as it was before its ASCII
// fast path, kept as the oracle: lower the whole page, then run the
// four heuristics over the copy.
func refAnalyzeResponse(page string) bool {
	p := strings.ToLower(page)
	if n, ok := refResultCount(p); ok {
		return n > 0
	}
	for _, f := range failurePhrases {
		if strings.Contains(p, f) {
			return false
		}
	}
	if strings.Count(p, "<li>") >= 1 {
		return true
	}
	for _, s := range successPhrases {
		if strings.Contains(p, s) {
			return true
		}
	}
	return false
}

func refResultCount(p string) (int, bool) {
	idx := strings.Index(p, "found ")
	if idx < 0 {
		return 0, false
	}
	rest := p[idx+len("found "):]
	n := 0
	digits := 0
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		if n < 1<<40 {
			n = n*10 + int(rest[digits]-'0')
		}
		digits++
	}
	if digits == 0 || !strings.HasPrefix(strings.TrimSpace(rest[digits:]), "result") {
		return 0, false
	}
	return n, true
}

// FuzzAnalyzeResponse feeds AnalyzeResponse arbitrary (often truncated
// or malformed) response pages. The fault injector substitutes exactly
// this kind of garbage for real probe pages, so the classifier must
// never panic on it, must agree with the lower-the-page oracle on every
// page, ASCII or not, and the explicit-count heuristic must stay sane
// even when the count would overflow an int.
func FuzzAnalyzeResponse(f *testing.F) {
	for _, page := range resilience.MalformedPages {
		f.Add(page)
	}
	// Well-formed pages, so mutations also explore the success paths.
	f.Add("<html><body><p>Found 12 results</p><ul><li>a</li></ul></body></html>")
	f.Add("<html><body><p>No results found.</p></body></html>")
	f.Add("<html><body>Showing 1-10 of 40</body></html>")
	f.Add("found 0 results")
	// Where lowering is not byte-wise: the Kelvin sign lowers to an
	// ASCII "k", U+0130 to two runes, U+00A0 is a space only to
	// unicode.IsSpace, and invalid UTF-8 lowers to U+FFFD.
	f.Add("<p>UN\u212aNOWN FIELD</p><li>x</li>")
	f.Add("<p>SHOW\u0130NG 3 of 9</p>")
	f.Add("<p>Found 5\u00a0results</p>")
	f.Add("<p>FOUND 2 RESULTS \xff\xfe</p>")
	f.Add("\xc3<li>SORRY</li>")

	f.Fuzz(func(t *testing.T, page string) {
		got := AnalyzeResponse(page)
		if again := AnalyzeResponse(page); again != got {
			t.Fatalf("AnalyzeResponse not deterministic: %v then %v", got, again)
		}
		if want := refAnalyzeResponse(page); got != want {
			t.Fatalf("AnalyzeResponse(%q) = %v, the oracle says %v", page, got, want)
		}
		if n, ok := refResultCount(strings.ToLower(page)); ok {
			if n < 0 {
				t.Fatalf("resultCount(%q) = %d, want >= 0", page, n)
			}
			if got != (n > 0) {
				t.Fatalf("AnalyzeResponse(%q) = %v, but explicit count %d should decide", page, got, n)
			}
		}
	})
}

// TestAnalyzeResponseMatchesOracle pins the ASCII fast path and the
// lowered path to the oracle on pages built around every phrase, in
// every case, with and without a non-ASCII byte to force the lowered
// path.
func TestAnalyzeResponseMatchesOracle(t *testing.T) {
	phrases := append(append([]string{"found 3 results", "found 0 result", "found 12  \tresults", "found 7 cars", "<li>"},
		failurePhrases...), successPhrases...)
	cases := 0
	for _, ph := range phrases {
		for _, form := range []string{ph, strings.ToUpper(ph), strings.ToUpper(ph[:1]) + ph[1:]} {
			for _, page := range []string{
				form,
				"<html><p>" + form + "</p></html>",
				"<html><p>" + form[:len(form)/2] + "</p>" + form[len(form)/2:] + "</html>",
				"<p>\u212a " + form + "</p>",
				"<p>" + form + "</p>\xff",
				"Found 4 Results. " + form,
				form + " Found 0 results",
			} {
				cases++
				if got, want := AnalyzeResponse(page), refAnalyzeResponse(page); got != want {
					t.Errorf("AnalyzeResponse(%q) = %v, the oracle says %v", page, got, want)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		AnalyzeResponse("<html><title>4 results</title><body><p>Found 4 results matching your search.</p><ul><li>A</li></ul></body></html>")
		AnalyzeResponse("<html><body><p>No results found. Sorry, no results were found matching your search.</p></body></html>")
	}); allocs != 0 {
		t.Errorf("AnalyzeResponse allocated %.1f times on ASCII pages, want 0", allocs)
	}
	t.Logf("%d pages", cases)
}

// BenchmarkAnalyzeResponse classifies a success page and a failure
// page of the simulated sources, on the ASCII fast path and through
// the oracle that lowers the page first.
func BenchmarkAnalyzeResponse(b *testing.B) {
	pages := []string{
		"<html><title>3 results</title><body><p>Found 3 results matching your search.</p><ul><li>Title: Tom Sawyer; Author: Mark Twain</li><li>Title: Huckleberry Finn; Author: Mark Twain</li><li>Title: Roughing It; Author: Mark Twain</li></ul></body></html>",
		"<html><body><p>No results found. Sorry, no results were found matching your search.</p></body></html>",
	}
	for name, fn := range map[string]func(string) bool{"fast": AnalyzeResponse, "oracle": refAnalyzeResponse} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(pages[i%len(pages)])
			}
		})
	}
}

// TestResultCountSaturates pins the overflow fix: absurd counts
// saturate instead of wrapping negative.
func TestResultCountSaturates(t *testing.T) {
	n, ok := resultCount("found 99999999999999999999 results", indexFold)
	if !ok || n <= 0 {
		t.Fatalf("resultCount = %d, %v; want a large positive count", n, ok)
	}
	if !AnalyzeResponse("Found 99999999999999999999 results") {
		t.Fatal("a huge explicit count should classify as success")
	}
}
