package nlp

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TaggedText is the tagged token sequence of one text, packed for
// storage: a text tagged once can be expanded back into its
// TaggedTokens any number of times without re-tokenizing or re-tagging.
// The search engine packs every snippet it serves, so a cached result
// carries its tags with it. The zero value is the packing of "".
//
// A TaggedText is read-only and safe to share between goroutines.
type TaggedText struct {
	text string
	// enc holds one record per token, three bytes for a token shorter
	// than 128 bytes that follows its predecessor within 128 bytes:
	//
	//	gap   uvarint  bytes from the previous token's end (or the text
	//	               start) to this token
	//	len   uvarint  the token's length in bytes
	//	meta  byte     tokenClass<<5 | index of the tag in packedTags
	enc string
	// norms holds, in token order, the lower-cased form of every
	// clsWordStored token.
	norms string
}

// tokenClass is a token's Kind together with where its Norm comes from.
type tokenClass uint8

const (
	clsNumber tokenClass = iota // Kind Number; Norm is Text
	clsPunct                    // Kind Punct; Norm is Text
	clsWord                     // Kind Word, lower-case; Norm is Text
	// clsWordStored: Kind Word; Norm is the next len(Text) bytes of
	// norms. Lower-casing keeps the byte length of almost every word.
	clsWordStored
	// clsWordLowered: Kind Word; Norm is strings.ToLower(Text),
	// recomputed on expansion. Only words whose lower-case form changes
	// byte length (U+0130, the Kelvin sign) need it.
	clsWordLowered
)

// packedTags is the tag inventory in packed-index order; tagIndex is its
// inverse.
var packedTags = [...]Tag{DT, NN, NNS, NNP, JJ, IN, CC, VB, VBZ, VBG, VBN, VBD, CD, RB, TO, PRP, SYM, WDT}

func tagIndex(t Tag) uint8 {
	switch t {
	case DT:
		return 0
	case NN:
		return 1
	case NNS:
		return 2
	case NNP:
		return 3
	case JJ:
		return 4
	case IN:
		return 5
	case CC:
		return 6
	case VB:
		return 7
	case VBZ:
		return 8
	case VBG:
		return 9
	case VBN:
		return 10
	case VBD:
		return 11
	case CD:
		return 12
	case RB:
		return 13
	case TO:
		return 14
	case PRP:
		return 15
	case SYM:
		return 16
	case WDT:
		return 17
	}
	panic(fmt.Sprintf("nlp: tag %q is not in the tag inventory", t))
}

// PackBuffer is reusable working memory for Tagger.PackWith. The zero
// value is ready to use; a PackBuffer must not be used by two
// goroutines at once.
type PackBuffer struct {
	toks  []TaggedToken
	lower []byte
	enc   []byte
}

// Pack tokenizes and tags text once and returns the packed result.
func (tg Tagger) Pack(text string) TaggedText {
	var buf PackBuffer
	return tg.PackWith(&buf, text)
}

// PackWith is Pack working in buf, so packing many texts allocates only
// the packed results. Words are lower-cased straight into the stored
// norms, not into a string per word as TagAppend does.
func (tg Tagger) PackWith(buf *PackBuffer, text string) TaggedText {
	toks, lower := buf.toks[:0], buf.lower[:0]
	sc := TokenScanner{keepCase: true}
	for sc.Reset(text); sc.Scan(); {
		t := sc.Token()
		if t.Kind == Word {
			n := len(lower)
			lower = AppendLower(lower, t.Text)
			switch {
			case string(lower[n:]) == t.Text:
				lower = lower[:n]
			case len(lower)-n == len(t.Text):
				t.Norm = "" // filled from the stored norms below
			default:
				lower = lower[:n]
				t.Norm = strings.ToLower(t.Text)
			}
		}
		toks = append(toks, TaggedToken{Token: t})
	}
	tt := TaggedText{text: text, norms: string(lower)}
	off := 0
	for i := range toks {
		if t := &toks[i]; t.Norm == "" {
			t.Norm = tt.norms[off : off+len(t.Text)]
			off += len(t.Text)
		}
	}
	tagAll(toks)
	enc, end := buf.enc[:0], 0
	for _, t := range toks {
		cls := clsWord
		switch {
		case t.Kind == Number:
			cls = clsNumber
		case t.Kind == Punct:
			cls = clsPunct
		case t.Norm == t.Text:
		case len(t.Norm) == len(t.Text):
			cls = clsWordStored
		default:
			cls = clsWordLowered
		}
		enc = binary.AppendUvarint(enc, uint64(t.Pos-end))
		enc = binary.AppendUvarint(enc, uint64(len(t.Text)))
		enc = append(enc, byte(cls)<<5|tagIndex(t.Tag))
		end = t.Pos + len(t.Text)
	}
	tt.enc = string(enc)
	buf.toks, buf.lower, buf.enc = toks, lower, enc
	return tt
}

// Text returns the text that was packed.
func (tt TaggedText) Text() string { return tt.text }

// AppendTokens expands the packed tokens onto dst and returns the
// extended slice: exactly the tokens TagAppend(dst, tt.Text()) appends.
// Text and Norm are substrings of the packed text and norms, so
// expansion allocates nothing beyond growing dst, except for the rare
// word whose lower-case form changes byte length.
func (tt TaggedText) AppendTokens(dst []TaggedToken) []TaggedToken {
	enc, norms := tt.enc, tt.norms
	end := 0
	for i := 0; i < len(enc); {
		var gap, n int
		gap, i = uvarint(enc, i)
		n, i = uvarint(enc, i)
		meta := enc[i]
		i++
		pos := end + gap
		end = pos + n
		text := tt.text[pos:end]
		t := TaggedToken{Token: Token{Text: text, Norm: text, Kind: Word, Pos: pos}, Tag: packedTags[meta&0x1f]}
		switch tokenClass(meta >> 5) {
		case clsNumber:
			t.Kind = Number
		case clsPunct:
			t.Kind = Punct
		case clsWordStored:
			t.Norm, norms = norms[:n], norms[n:]
		case clsWordLowered:
			t.Norm = strings.ToLower(text)
		}
		dst = append(dst, t)
	}
	return dst
}

// uvarint decodes the unsigned varint PackWith wrote at s[i:] and
// returns it with the index just past it.
func uvarint(s string, i int) (int, int) {
	var v uint64
	for shift := 0; ; shift += 7 {
		b := s[i]
		i++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return int(v), i
		}
	}
}
