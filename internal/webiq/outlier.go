package webiq

import (
	"math"
	"strconv"
	"strings"
	"unicode"

	"webiq/internal/stats"
)

// Instance-domain typing and outlier removal, per Section 2.2 of the
// paper: a pre-processing step determines whether the candidate domain
// is numeric or string (majority vote with type-recognizing regular
// expressions) and removes type mismatches; then type-specific
// discordancy tests remove candidates whose test statistics lie more
// than OutlierSigma standard deviations from the mean.

// DomainType is the inferred type of an instance domain.
type DomainType int

const (
	// StringDomain means the candidates are predominantly textual.
	StringDomain DomainType = iota
	// NumericDomain means the candidates are predominantly monetary
	// values, integers, or reals.
	NumericDomain
)

// IsNumericValue reports whether a single candidate is a monetary value,
// integer, or real number. After trimming surrounding white space, a
// candidate is numeric when it is one of
//
//	$ D [.F]    money: '$', at most one ASCII space, tab, CR, LF or FF,
//	            an integer part D and an optional fraction
//	D           an integer
//	P.F         a real with an ungrouped integer part
//
// where D is a run of digits (P) or digits grouped in threes by commas
// ("15,200"), F is one or more digits, and every digit is ASCII 0-9.
func IsNumericValue(s string) bool {
	s = strings.TrimSpace(s)
	money := len(s) > 0 && s[0] == '$'
	if money {
		s = s[1:]
		if len(s) > 0 && isAmountSpace(s[0]) {
			s = s[1:]
		}
	}
	i := asciiDigits(s)
	if i == 0 {
		return false
	}
	grouped := false
	if i <= 3 {
		for i+4 <= len(s) && s[i] == ',' && asciiDigits(s[i+1:i+4]) == 3 {
			i += 4
			grouped = true
		}
	}
	if i == len(s) {
		return true
	}
	if s[i] != '.' || (grouped && !money) {
		return false
	}
	f := asciiDigits(s[i+1:])
	return f > 0 && i+1+f == len(s)
}

// asciiDigits returns the length of the leading run of ASCII digits.
func asciiDigits(s string) int {
	i := 0
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// isAmountSpace reports whether c may separate '$' from the amount:
// an ASCII space, tab, newline, form feed or carriage return (not a
// vertical tab).
func isAmountSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

// parseNumeric extracts the numeric value of a candidate.
func parseNumeric(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimSpace(s)
	s = strings.ReplaceAll(s, ",", "")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// DetectDomainType types the candidate domain: numeric when at least
// majority (e.g. 0.8) of candidates are numeric values.
func DetectDomainType(candidates []string, majority float64) DomainType {
	return domainType(numericMask(candidates), majority)
}

// numericMask reports IsNumericValue for each candidate.
func numericMask(candidates []string) []bool {
	numeric := make([]bool, len(candidates))
	for i, c := range candidates {
		numeric[i] = IsNumericValue(c)
	}
	return numeric
}

// domainType is DetectDomainType over precomputed numeric flags.
func domainType(numeric []bool, majority float64) DomainType {
	if len(numeric) == 0 {
		return StringDomain
	}
	n := 0
	for _, isNum := range numeric {
		if isNum {
			n++
		}
	}
	if float64(n) >= majority*float64(len(numeric)) {
		return NumericDomain
	}
	return StringDomain
}

// RemoveOutliers performs the two-step pruning: type-based filtering
// then discordancy tests. It returns the surviving candidates in input
// order.
func RemoveOutliers(candidates []string, cfg Config) []string {
	if len(candidates) == 0 {
		return nil
	}
	numeric := numericMask(candidates)
	dt := domainType(numeric, cfg.NumericMajority)

	// Pre-processing: drop candidates that are not of the determined
	// type.
	var typed []string
	for i, c := range candidates {
		if (dt == NumericDomain) == numeric[i] {
			typed = append(typed, c)
		}
	}
	if len(typed) < 3 {
		// Too few values for meaningful statistics.
		return typed
	}

	if dt == NumericDomain {
		return removeNumericOutliers(typed, cfg.OutlierSigma)
	}
	return removeStringOutliers(typed, cfg.OutlierSigma)
}

// RemoveOutliersExplain is RemoveOutliers plus the complementary list
// of candidates it removed (type mismatches and discordant values), in
// input order — the provenance ledger records each removal as an
// "outlier"/"removed" decision.
func RemoveOutliersExplain(candidates []string, cfg Config) (kept, removed []string) {
	kept = RemoveOutliers(candidates, cfg)
	// kept is a subsequence of candidates, so a greedy two-pointer walk
	// recovers the removed complement even with duplicate values.
	j := 0
	for _, c := range candidates {
		if j < len(kept) && kept[j] == c {
			j++
			continue
		}
		removed = append(removed, c)
	}
	return kept, removed
}

// removeNumericOutliers drops values > sigma standard deviations from
// the mean (e.g. a $10,000 book price).
func removeNumericOutliers(cands []string, sigma float64) []string {
	values := make([]float64, len(cands))
	for i, c := range cands {
		v, _ := parseNumeric(c)
		values[i] = v
	}
	keep := discordancy(values, sigma)
	return filterByMask(cands, keep)
}

// stringStats computes the four test statistics of the paper for one
// candidate: word count, capital-letter count, character length, and
// percentage of numerical characters.
func stringStats(c string) [4]float64 {
	words := strings.Fields(c)
	caps, digits, letters := 0, 0, 0
	for _, r := range c {
		switch {
		case unicode.IsUpper(r):
			caps++
			letters++
		case unicode.IsLetter(r):
			letters++
		case unicode.IsDigit(r):
			digits++
		}
	}
	total := len([]rune(c))
	pctDigits := 0.0
	if total > 0 {
		pctDigits = float64(digits) / float64(total)
	}
	return [4]float64{float64(len(words)), float64(caps), float64(total), pctDigits}
}

// removeStringOutliers drops candidates for which any of the four test
// statistics deviates more than sigma standard deviations from the mean
// over all candidates.
func removeStringOutliers(cands []string, sigma float64) []string {
	perCand := make([][4]float64, len(cands))
	for i, c := range cands {
		perCand[i] = stringStats(c)
	}
	keep := make([]bool, len(cands))
	for i := range keep {
		keep[i] = true
	}
	for s := 0; s < 4; s++ {
		col := make([]float64, len(cands))
		for i := range cands {
			col[i] = perCand[i][s]
		}
		mask := discordancy(col, sigma)
		for i := range keep {
			keep[i] = keep[i] && mask[i]
		}
	}
	return filterByMask(cands, keep)
}

// discordancy returns a keep-mask: false where the value lies more than
// sigma standard deviations from the mean. The test statistics are
// assumed normally distributed, per the paper. Mean and deviation are
// computed leave-one-out (excluding the value under test) so a single
// extreme outlier cannot mask itself by inflating the deviation.
func discordancy(values []float64, sigma float64) []bool {
	n := len(values)
	keep := make([]bool, n)
	loo := stats.NewLeaveOneOut(values)
	for i, v := range values {
		if n < 2 {
			keep[i] = true
			continue
		}
		m, sd := loo.At(i)
		if sd == 0 {
			// All other values agree exactly; v must match them.
			keep[i] = math.Abs(v-m) < 1e-9
			continue
		}
		keep[i] = math.Abs(v-m) <= sigma*sd
	}
	return keep
}

func filterByMask(cands []string, keep []bool) []string {
	var out []string
	for i, c := range cands {
		if keep[i] {
			out = append(out, c)
		}
	}
	return out
}
