package deepweb

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Response-analysis heuristics, a variant of those used by the
// hidden-Web crawler of Raghavan & Garcia-Molina that the paper cites:
// classify a response page as a successful submission or a failure.

// failurePhrases are indicator phrases of failed submissions.
var failurePhrases = []string{
	"no results", "no matches", "not found", "nothing found",
	"invalid", "error", "sorry", "try again", "please complete",
	"required field", "unknown field", "0 results",
}

// successPhrases are indicator phrases of successful submissions. Bare
// "found" is deliberately absent: "we found nothing" would match it.
var successPhrases = []string{
	"results matching", "showing", "displaying",
}

// AnalyzeResponse classifies a response page. The heuristics are, in
// order: (1) an explicit positive result count wins; (2) failure
// indicator phrases lose; (3) a page listing record structure (several
// list items) wins; (4) otherwise failure. Matching ignores case: the
// heuristics read the page as strings.ToLower would render it.
//
// Every probe and fan-out classifies its page, so an ASCII page — all
// of the simulated Deep Web's — is matched in place with ASCII case
// folding, which is exactly what ToLower does to it, and costs no copy.
// Any other page is lowered first: there ToLower is not byte-wise (it
// maps U+212A to "k" and U+0130 to two runes).
func AnalyzeResponse(page string) bool {
	for i := 0; i < len(page); i++ {
		if page[i] >= utf8.RuneSelf {
			return analyze(strings.ToLower(page), strings.Index)
		}
	}
	return analyze(page, indexFold)
}

// analyze runs the heuristics over p, where index(p, sub) finds the
// lower-case phrase sub in p as strings.Index finds it in the lowered
// page.
func analyze(p string, index func(s, sub string) int) bool {
	// Heuristic 1: explicit result count.
	if n, ok := resultCount(p, index); ok {
		return n > 0
	}
	// Heuristic 2: failure phrases.
	for _, f := range failurePhrases {
		if index(p, f) >= 0 {
			return false
		}
	}
	// Heuristic 3: structural evidence of listed records.
	if index(p, "<li>") >= 0 {
		return true
	}
	// Heuristic 4: weak positive phrases.
	for _, s := range successPhrases {
		if index(p, s) >= 0 {
			return true
		}
	}
	return false
}

// indexFold is strings.Index(strings.ToLower(s), sub) for an ASCII s
// and a lower-case ASCII sub, without lowering s.
func indexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && lowerASCII(s[i+j]) == sub[j] {
			j++
		}
		if j == len(sub) {
			return i
		}
	}
	return -1
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// resultCount extracts N from "found N results", if present; index is
// analyze's.
func resultCount(p string, index func(s, sub string) int) (int, bool) {
	idx := index(p, "found ")
	if idx < 0 {
		return 0, false
	}
	rest := p[idx+len("found "):]
	n := 0
	digits := 0
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		// Saturate instead of overflowing: any count this large is
		// "many" for the success/failure call either way.
		if n < 1<<40 {
			n = n*10 + int(rest[digits]-'0')
		}
		digits++
	}
	if digits == 0 {
		return 0, false
	}
	word := strings.TrimLeftFunc(rest[digits:], unicode.IsSpace)
	if len(word) < len("result") || index(word[:len("result")], "result") != 0 {
		return 0, false
	}
	return n, true
}
