package matcher

import (
	"regexp"
	"strings"
	"testing"
)

// The reference value typing: the regexps classifyValue's scanners
// replace. Go's \d and \s are ASCII-only, while strings.TrimSpace,
// ToLower and Fields are Unicode-aware, so the two agree only if the
// scanners read ASCII where the regexps do.
var (
	monetaryRe = regexp.MustCompile(`^\$\s?\d{1,3}(,\d{3})*(\.\d+)?$|^\$\s?\d+(\.\d+)?$`)
	integerRe  = regexp.MustCompile(`^\d{1,3}(,\d{3})+$|^\d+$`)
	realValRe  = regexp.MustCompile(`^\d+\.\d+$`)
)

// refClassifyValue is classifyValue as the regexps define it.
func refClassifyValue(v string) ValueType {
	v = strings.TrimSpace(v)
	switch {
	case monetaryRe.MatchString(v):
		return TypeMonetary
	case realValRe.MatchString(v):
		return TypeReal
	case integerRe.MatchString(v):
		return TypeInteger
	}
	if _, ok := monthNames[strings.ToLower(v)]; ok {
		return TypeDate
	}
	fields := strings.Fields(strings.ToLower(v))
	if len(fields) == 2 {
		if _, ok := monthNames[fields[0]]; ok && integerRe.MatchString(fields[1]) {
			return TypeDate
		}
	}
	return TypeString
}

// classifySeeds are edge cases of every scanner: thousands groups of
// the wrong width, empty fractions and integer parts, one and two spaces
// after the dollar sign (ASCII, vertical tab and non-breaking), and
// digits and spaces outside ASCII, which the regexps do not accept.
var classifySeeds = []string{
	"$15,200", "$9.99", "$ 9.99", "$  9.99", "$\t5", "$\v5", "$ 5", "$\n1,000.50", "$.5", "$5.", "$",
	"$1234,567", "$1,23", "$1,234,567.0", "$0", "$١٢٣",
	"1995", "10,000", "1,00", "1234,567", ",000", "1,000,", "0", "",
	"3.5", "3.", ".5", "1.2.3", "1,000.5", "٣.٥", "3.5 ", " 3.5", " $5 ", "\v42\v",
	"January", "jan", "MAY", "Jan 15", "jan  15", "Jan 15", "Jan 1,500", "Jan 15 16", "Jan ١٥", "DECEMBER 31",
	"Honda", "New York", "İstanbul", "K", "\x85", "\xff\xfe",
}

// TestClassifyValueMatchesRegexps checks the scanners against the
// regexps on the seed cases.
func TestClassifyValueMatchesRegexps(t *testing.T) {
	for _, v := range classifySeeds {
		if got, want := classifyValue(v), refClassifyValue(v); got != want {
			t.Errorf("classifyValue(%q) = %v, regexps say %v", v, got, want)
		}
	}
}

// FuzzClassifyValue checks the scanners against the regexps on any
// value.
func FuzzClassifyValue(f *testing.F) {
	for _, v := range classifySeeds {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if got, want := classifyValue(v), refClassifyValue(v); got != want {
			t.Errorf("classifyValue(%q) = %v, regexps say %v", v, got, want)
		}
	})
}
