// Package matcher implements an IceQ-style interface matcher (the
// paper's reference matching system): attribute similarity combines
// label similarity and instance-domain similarity
// (Sim = α·LabelSim + β·DomSim), and attributes are grouped with
// constrained agglomerative clustering. Each cluster yields the matches
// between its members.
package matcher

import (
	"strconv"
	"strings"

	"webiq/internal/sim"
)

// ValueType is a type inferred from an attribute's instance values —
// the inventory IceQ's domain similarity distinguishes (integer, real,
// monetary values, date, string).
type ValueType int

// Inferred value types.
const (
	TypeString ValueType = iota
	TypeInteger
	TypeReal
	TypeMonetary
	TypeDate
)

// String returns the type name.
func (t ValueType) String() string {
	switch t {
	case TypeInteger:
		return "integer"
	case TypeReal:
		return "real"
	case TypeMonetary:
		return "monetary"
	case TypeDate:
		return "date"
	default:
		return "string"
	}
}

var monthNames = map[string]string{
	"january": "jan", "february": "feb", "march": "mar", "april": "apr",
	"may": "may", "june": "jun", "july": "jul", "august": "aug",
	"september": "sep", "october": "oct", "november": "nov",
	"december": "dec",
	"jan":      "jan", "feb": "feb", "mar": "mar", "apr": "apr",
	"jun": "jun", "jul": "jul", "aug": "aug", "sep": "sep",
	"oct": "oct", "nov": "nov", "dec": "dec",
}

// classifyValue types a single value.
func classifyValue(v string) ValueType {
	v = strings.TrimSpace(v)
	switch {
	case isMonetary(v):
		return TypeMonetary
	case isReal(v):
		return TypeReal
	case isInteger(v):
		return TypeInteger
	}
	if _, ok := monthNames[strings.ToLower(v)]; ok {
		return TypeDate
	}
	// "Jan 15"-style values.
	fields := strings.Fields(strings.ToLower(v))
	if len(fields) == 2 {
		if _, ok := monthNames[fields[0]]; ok && isInteger(fields[1]) {
			return TypeDate
		}
	}
	return TypeString
}

// The value scanners below read ASCII only: a digit is 0-9 and a space
// one of \t \n \f \r or ' ', as in a regexp's \d and \s.

// digits returns the length of s's leading run of digits.
func digits(s string) int {
	n := 0
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	return n
}

// isInteger reports whether s is a run of digits, or one to three
// digits followed by ",ddd" thousands groups: "1995", "10,000".
func isInteger(s string) bool {
	n := digits(s)
	if n == len(s) {
		return n > 0
	}
	if n == 0 || n > 3 || (len(s)-n)%4 != 0 {
		return false
	}
	for rest := s[n:]; rest != ""; rest = rest[4:] {
		if rest[0] != ',' || digits(rest[1:4]) != 3 {
			return false
		}
	}
	return true
}

// isReal reports whether s is digits, a point, and digits: "3.5".
func isReal(s string) bool {
	n := digits(s)
	return n > 0 && n+1 < len(s) && s[n] == '.' && digits(s[n+1:]) == len(s)-n-1
}

// isMonetary reports whether s is a dollar sign, at most one space, and
// an integer with an optional fraction: "$15,200", "$ 9.99".
func isMonetary(s string) bool {
	if s == "" || s[0] != '$' {
		return false
	}
	s = s[1:]
	if s != "" && strings.IndexByte("\t\n\f\r ", s[0]) >= 0 {
		s = s[1:]
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		if frac := s[i+1:]; frac == "" || digits(frac) != len(frac) {
			return false
		}
		s = s[:i]
	}
	return isInteger(s)
}

// InferType infers an attribute domain's type by majority vote (>= 60%)
// over its values; ties and mixed domains default to string.
func InferType(values []string) ValueType {
	if len(values) == 0 {
		return TypeString
	}
	counts := map[ValueType]int{}
	for _, v := range values {
		counts[classifyValue(v)]++
	}
	best, bestN := TypeString, 0
	for t, n := range counts {
		if n > bestN {
			best, bestN = t, n
		}
	}
	if float64(bestN) >= 0.6*float64(len(values)) {
		return best
	}
	return TypeString
}

// numericValue parses a numeric or monetary value.
func numericValue(v string) (float64, bool) {
	v = strings.TrimSpace(v)
	v = strings.TrimPrefix(v, "$")
	v = strings.TrimSpace(v)
	v = strings.ReplaceAll(v, ",", "")
	f, err := strconv.ParseFloat(v, 64)
	return f, err == nil
}

// DomSim is the domain similarity of two value sets, following IceQ:
// it compares the inferred types and the values. Different types give
// zero; numeric types compare range overlap; dates and strings compare
// value overlap (dates after month normalization).
func DomSim(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ta, tb := InferType(a), InferType(b)
	if ta != tb {
		return 0
	}
	switch ta {
	case TypeInteger, TypeReal, TypeMonetary:
		return rangeOverlap(a, b)
	case TypeDate:
		return sim.ValueOverlap(normalizeMonths(a), normalizeMonths(b))
	default:
		return sim.ValueOverlap(a, b)
	}
}

// rangeOverlap is the Jaccard overlap of the [min,max] intervals of two
// numeric value sets.
func rangeOverlap(a, b []string) float64 {
	loA, hiA, okA := valueRange(a)
	loB, hiB, okB := valueRange(b)
	return boundsOverlap(loA, hiA, okA, loB, hiB, okB)
}

// boundsOverlap is rangeOverlap over already-extracted value ranges.
func boundsOverlap(loA, hiA float64, okA bool, loB, hiB float64, okB bool) float64 {
	if !okA || !okB {
		return 0
	}
	lo := loA
	if loB > lo {
		lo = loB
	}
	hi := hiA
	if hiB < hi {
		hi = hiB
	}
	if hi < lo {
		return 0
	}
	unionLo := loA
	if loB < unionLo {
		unionLo = loB
	}
	unionHi := hiA
	if hiB > unionHi {
		unionHi = hiB
	}
	if unionHi == unionLo {
		return 1 // both ranges are the same single point
	}
	return (hi - lo) / (unionHi - unionLo)
}

func valueRange(values []string) (lo, hi float64, ok bool) {
	first := true
	for _, v := range values {
		f, good := numericValue(v)
		if !good {
			continue
		}
		if first {
			lo, hi, first = f, f, false
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi, !first
}

func normalizeMonths(values []string) []string {
	out := make([]string, len(values))
	for i, v := range values {
		fields := strings.Fields(strings.ToLower(v))
		if len(fields) >= 1 {
			if m, ok := monthNames[fields[0]]; ok {
				out[i] = m
				continue
			}
		}
		out[i] = strings.ToLower(v)
	}
	return out
}
