package webiq

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
	"testing/quick"
)

// The type-recognizing regular expressions IsNumericValue's byte
// scanner replaced, kept as its oracle.
var (
	referenceMoneyRe = regexp.MustCompile(`^\$\s?\d{1,3}(,\d{3})*(\.\d+)?$|^\$\s?\d+(\.\d+)?$`)
	referenceIntRe   = regexp.MustCompile(`^\d{1,3}(,\d{3})+$|^\d+$`)
	referenceRealRe  = regexp.MustCompile(`^\d+\.\d+$`)
)

func referenceIsNumericValue(s string) bool {
	s = strings.TrimSpace(s)
	return referenceMoneyRe.MatchString(s) || referenceIntRe.MatchString(s) || referenceRealRe.MatchString(s)
}

func TestIsNumericValue(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"$15,200", true}, {"42", true}, {"3.14", true}, {"$9.99", true},
		{"10,000", true}, {"1995", true}, {"$ 1,234.5", true}, {"$\t7", true},
		{"$\n7", true}, {"$\f7", true}, {"$\r7.5", true},
		{"\u00a0 42\u2003", true}, {"\v12\n", true}, {"$1234.50", true},
		{"1,234,567", true}, {"0", true}, {"$0.5", true},
		{"Honda", false}, {"First Class", false}, {"a1b2", false}, {"", false},
		{"12ab", false}, {"$x", false}, {"1,23", false}, {"12.", false},
		{".5", false}, {"1,234.5", false}, {"1234,567", false}, {"$1,2345", false},
		{"$\v7", false}, {"$\u00a07", false}, {"$  7", false}, {"$", false},
		{"١٢٣", false}, {"１２３", false}, {"1.2.3", false}, {"$$5", false},
		{"5$", false}, {"1, 234", false}, {"-5", false}, {"+5", false},
	}
	for _, c := range cases {
		if got := IsNumericValue(c.in); got != c.want {
			t.Errorf("IsNumericValue(%q) = %v, want %v", c.in, got, c.want)
		}
		if oracle := referenceIsNumericValue(c.in); oracle != c.want {
			t.Errorf("oracle(%q) = %v, table says %v", c.in, oracle, c.want)
		}
	}
}

// TestIsNumericValueMatchesRegexps drives the scanner and the regexp
// oracle with strings assembled from the alphabet both care about:
// digits (ASCII and not), '$', ',', '.', ASCII and Unicode white space,
// and letters.
func TestIsNumericValueMatchesRegexps(t *testing.T) {
	alphabet := []string{
		"0", "1", "5", "9", "$", ",", ".", " ", "\t", "\v", "\n", "\f", "\r",
		"\u00a0", "\u2003", "\u0085", "a", "x", "٣", "５", "-",
	}
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteString(alphabet[int(p)%len(alphabet)])
		}
		s := b.String()
		if got, want := IsNumericValue(s), referenceIsNumericValue(s); got != want {
			t.Logf("IsNumericValue(%q) = %v, regexps say %v", s, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// Every string of up to five symbols over the money/number subset.
	small := []string{"1", "$", ",", ".", " ", "\f", "\v", "\u00a0"}
	var walk func(prefix string, depth int)
	walk = func(prefix string, depth int) {
		if got, want := IsNumericValue(prefix), referenceIsNumericValue(prefix); got != want {
			t.Errorf("IsNumericValue(%q) = %v, regexps say %v", prefix, got, want)
		}
		if depth == 0 {
			return
		}
		for _, sym := range small {
			walk(prefix+sym, depth-1)
		}
	}
	walk("", 5)
	// Digit groups need runs of up to four digits to probe {1,3}.
	for _, s := range []string{"1111,111", "111,1111", "$111,111.11", "11,111,111", "$ 1111.1", "1111.1111"} {
		if got, want := IsNumericValue(s), referenceIsNumericValue(s); got != want {
			t.Errorf("IsNumericValue(%q) = %v, regexps say %v", s, got, want)
		}
	}
}

func TestDetectDomainType(t *testing.T) {
	num := []string{"$5,000", "$7,500", "$10,000", "$12,000", "Honda"}
	if DetectDomainType(num, 0.8) != NumericDomain {
		t.Error("80% numeric should be numeric domain")
	}
	str := []string{"Honda", "Toyota", "Ford", "$5,000"}
	if DetectDomainType(str, 0.8) != StringDomain {
		t.Error("mostly string should be string domain")
	}
	if DetectDomainType(nil, 0.8) != StringDomain {
		t.Error("empty defaults to string")
	}
}

func TestRemoveOutliersNumeric(t *testing.T) {
	cfg := DefaultConfig()
	// A $10,000 book among ordinary prices is the paper's example.
	cands := []string{"$12", "$15", "$18", "$20", "$14", "$16", "$13", "$17", "$19", "$10,000"}
	got := RemoveOutliers(cands, cfg)
	for _, v := range got {
		if v == "$10,000" {
			t.Error("absurd price survived outlier removal")
		}
	}
	if len(got) != len(cands)-1 {
		t.Errorf("kept %d of %d; want all but one", len(got), len(cands))
	}
}

func TestRemoveOutliersTypeMismatch(t *testing.T) {
	cfg := DefaultConfig()
	cands := []string{"Honda", "Toyota", "Ford", "Nissan", "Mazda", "12345"}
	got := RemoveOutliers(cands, cfg)
	for _, v := range got {
		if v == "12345" {
			t.Error("numeric candidate survived in string domain")
		}
	}
}

func TestRemoveOutliersLongPhrase(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OutlierSigma = 2 // small sample, tighten the test
	cands := []string{
		"Honda", "Toyota", "Ford", "Nissan", "Mazda", "Subaru", "Kia",
		"BMW", "Audi", "Volvo", "Lexus", "Jeep",
		"information service online customer support center directory",
	}
	got := RemoveOutliers(cands, cfg)
	for _, v := range got {
		if len(v) > 20 {
			t.Errorf("junk phrase %q survived", v)
		}
	}
}

func TestRemoveOutliersSmallSets(t *testing.T) {
	cfg := DefaultConfig()
	got := RemoveOutliers([]string{"Honda", "Toyota"}, cfg)
	if !reflect.DeepEqual(got, []string{"Honda", "Toyota"}) {
		t.Errorf("small sets pass through: got %v", got)
	}
	if got := RemoveOutliers(nil, cfg); got != nil {
		t.Errorf("nil in, nil out: got %v", got)
	}
}

func TestRemoveOutliersHomogeneous(t *testing.T) {
	cfg := DefaultConfig()
	cands := []string{"Honda", "Honda", "Honda", "Honda"}
	got := RemoveOutliers(cands, cfg)
	if len(got) != 4 {
		t.Errorf("identical candidates: kept %d of 4", len(got))
	}
}

func TestStringStats(t *testing.T) {
	st := stringStats("Air Canada 1")
	if st[0] != 3 { // words
		t.Errorf("words = %v", st[0])
	}
	if st[1] != 2 { // capitals
		t.Errorf("caps = %v", st[1])
	}
	if st[2] != 12 { // chars
		t.Errorf("len = %v", st[2])
	}
	if st[3] <= 0 || st[3] >= 0.2 { // 1 digit of 12 chars
		t.Errorf("pct digits = %v", st[3])
	}
}

// Property: RemoveOutliers output is a subsequence of its input.
func TestRemoveOutliersSubsequence(t *testing.T) {
	cfg := DefaultConfig()
	f := func(in []string) bool {
		out := RemoveOutliers(in, cfg)
		i := 0
		for _, v := range out {
			found := false
			for i < len(in) {
				if in[i] == v {
					found = true
					i++
					break
				}
				i++
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseNumeric(t *testing.T) {
	cases := map[string]float64{
		"$15,200": 15200, "42": 42, "3.5": 3.5, "$9.99": 9.99,
	}
	for in, want := range cases {
		got, ok := parseNumeric(in)
		if !ok || got != want {
			t.Errorf("parseNumeric(%q) = %v,%v", in, got, ok)
		}
	}
	if _, ok := parseNumeric("Honda"); ok {
		t.Error("parseNumeric(Honda) should fail")
	}
}
