// Package nlp provides the shallow natural-language processing substrate
// used by WebIQ: tokenization, rule-based part-of-speech tagging in the
// style of Brill's tagger, noun-phrase chunking by pattern matching over
// POS tags, and English inflection helpers.
//
// The package is deliberately small and deterministic. WebIQ only needs
// shallow analysis of short attribute labels (e.g. "Departure city",
// "From city", "Class of service") and of simple snippet sentences, so a
// lexicon-plus-transformation-rules tagger is both faithful to the paper
// (which uses Brill's tagger) and adequate for the task.
package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind classifies a token at the lexical level, before POS tagging.
type Kind int

const (
	// Word is an alphabetic token, possibly with internal hyphens or
	// apostrophes ("don't", "twin-engine").
	Word Kind = iota
	// Number is a numeric token: integers, reals, and monetary values
	// ("42", "3.14", "$15,200").
	Number
	// Punct is a punctuation token (",", ".", ":", "(", ...).
	Punct
)

// Token is a lexical token with its original and normalized text.
type Token struct {
	Text string // original text as it appeared
	Norm string // lower-cased text
	Kind Kind
	Pos  int // byte offset of the token in the input
}

// IsCapitalized reports whether the token's first rune is an upper-case
// letter. Capitalization is one of the outlier-detection statistics and a
// hint for proper-noun tagging.
func (t Token) IsCapitalized() bool {
	for _, r := range t.Text {
		return unicode.IsUpper(r)
	}
	return false
}

// TokenScanner yields the tokens of a string one at a time, without
// allocating a token slice. It is the iterator form of Tokenize — the
// hot paths (indexing, snippet tagging, word extraction) scan instead
// of materializing []Token:
//
//	var sc TokenScanner
//	for sc.Reset(text); sc.Scan(); {
//		t := sc.Token()
//		...
//	}
//
// Each token's Text and Norm are substrings of the input; the only
// per-token allocation is the lower-casing of a Word token that
// actually contains upper-case letters (strings.ToLower returns its
// input unchanged otherwise).
type TokenScanner struct {
	text string
	i    int
	tok  Token
	// keepCase leaves a Word token's Norm equal to its Text, for a
	// caller that lowers words into its own buffer instead.
	keepCase bool
}

// Reset points the scanner at text and rewinds it.
func (sc *TokenScanner) Reset(text string) {
	sc.text = text
	sc.i = 0
	sc.tok = Token{}
}

// Token returns the token found by the last successful Scan.
func (sc *TokenScanner) Token() Token { return sc.tok }

// Scan advances to the next token, reporting whether one was found.
//
// Rules (shared with Tokenize):
//   - A word is a maximal run of letters, with embedded hyphens or
//     apostrophes joining letter runs ("first-class", "o'hare").
//   - A number is a maximal run of digits with optional leading '$',
//     embedded commas as thousands separators, and one decimal point
//     ("$15,200", "3.5").
//   - Everything else that is not whitespace becomes a single-rune
//     punctuation token.
func (sc *TokenScanner) Scan() bool {
	text := sc.text
	// Work directly on byte offsets so Pos always indexes the original
	// string, even for invalid UTF-8 (which decodes as U+FFFD but must
	// advance by its true encoded width).
	runeAt := func(i int) (rune, int) {
		if c := text[i]; c < utf8.RuneSelf {
			return rune(c), 1
		}
		return utf8.DecodeRuneInString(text[i:])
	}
	i := sc.i
	for i < len(text) {
		r, w := runeAt(i)
		switch {
		case unicode.IsSpace(r):
			i += w
		case unicode.IsLetter(r):
			start := i
			j := i
			for j < len(text) {
				rj, wj := runeAt(j)
				if unicode.IsLetter(rj) {
					j += wj
					continue
				}
				// Join hyphens/apostrophes flanked by letters.
				if (rj == '-' || rj == '\'') && j+wj < len(text) {
					rn, wn := runeAt(j + wj)
					if unicode.IsLetter(rn) {
						j += wj + wn
						continue
					}
				}
				break
			}
			tok := text[start:j]
			norm := tok
			if !sc.keepCase {
				norm = strings.ToLower(tok)
			}
			sc.tok = Token{Text: tok, Norm: norm, Kind: Word, Pos: start}
			sc.i = j
			return true
		case unicode.IsDigit(r) || (r == '$' && i+w < len(text) && isDigitAt(text, i+w)):
			start := i
			j := i
			if text[j] == '$' {
				j++
			}
			seenDot := false
			for j < len(text) {
				rj, wj := runeAt(j)
				if unicode.IsDigit(rj) {
					j += wj
					continue
				}
				if rj == ',' && j+wj < len(text) && isDigitAt(text, j+wj) {
					j += wj // the digit is consumed on the next iteration
					continue
				}
				if rj == '.' && !seenDot && j+wj < len(text) && isDigitAt(text, j+wj) {
					seenDot = true
					j += wj
					continue
				}
				break
			}
			tok := text[start:j]
			sc.tok = Token{Text: tok, Norm: tok, Kind: Number, Pos: start}
			sc.i = j
			return true
		default:
			sc.tok = Token{Text: text[i : i+w], Norm: text[i : i+w], Kind: Punct, Pos: i}
			sc.i = i + w
			return true
		}
	}
	sc.i = i
	return false
}

// Tokenize splits text into word, number, and punctuation tokens,
// following TokenScanner's rules. Callers that only iterate should use
// a TokenScanner directly and skip the slice.
func Tokenize(text string) []Token {
	var tokens []Token
	var sc TokenScanner
	for sc.Reset(text); sc.Scan(); {
		tokens = append(tokens, sc.Token())
	}
	return tokens
}

// AppendLower appends the lower-cased s to dst, byte-for-byte identical
// to strings.ToLower(s) — including U+FFFD replacement of invalid
// UTF-8 — without allocating a string.
func AppendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += w
	}
	return dst
}

// isDigitAt reports whether the rune starting at byte i is a digit.
func isDigitAt(s string, i int) bool {
	r, _ := utf8.DecodeRuneInString(s[i:])
	return unicode.IsDigit(r)
}

// Words returns only the word and number tokens of text, normalized to
// lower case. It is the common pre-processing step for similarity
// computation and indexing.
func Words(text string) []string {
	return AppendWords(nil, text)
}

// AppendWords appends the word and number norms of text to dst —
// equivalent to append(dst, Words(text)...) without materializing the
// intermediate token slice.
func AppendWords(dst []string, text string) []string {
	var sc TokenScanner
	for sc.Reset(text); sc.Scan(); {
		if t := sc.Token(); t.Kind != Punct {
			dst = append(dst, t.Norm)
		}
	}
	return dst
}
