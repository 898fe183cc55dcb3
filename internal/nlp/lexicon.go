package nlp

import "fmt"

// Tag is a part-of-speech tag. We use a compact subset of the Penn
// Treebank tag set — everything the label-syntax analysis and snippet
// chunking in WebIQ require.
type Tag string

// The tag inventory.
const (
	DT  Tag = "DT"  // determiner: the, a, any
	NN  Tag = "NN"  // noun, singular
	NNS Tag = "NNS" // noun, plural
	NNP Tag = "NNP" // proper noun
	JJ  Tag = "JJ"  // adjective
	IN  Tag = "IN"  // preposition
	CC  Tag = "CC"  // coordinating conjunction
	VB  Tag = "VB"  // verb, base form
	VBZ Tag = "VBZ" // verb, 3rd person singular present
	VBG Tag = "VBG" // verb, gerund
	VBN Tag = "VBN" // verb, past participle
	VBD Tag = "VBD" // verb, past tense
	CD  Tag = "CD"  // cardinal number
	RB  Tag = "RB"  // adverb
	TO  Tag = "TO"  // "to"
	PRP Tag = "PRP" // pronoun
	SYM Tag = "SYM" // symbol / punctuation
	WDT Tag = "WDT" // wh-determiner: which, what
)

// TagCode is a tag's index in the tag inventory: the tag in one byte,
// for callers that store many tags.
type TagCode uint8

// tagInventory lists every tag in TagCode order.
var tagInventory = [...]Tag{DT, NN, NNS, NNP, JJ, IN, CC, VB, VBZ, VBG, VBN, VBD, CD, RB, TO, PRP, SYM, WDT}

// Code returns the tag's TagCode. It panics on a tag outside the
// inventory.
func (t Tag) Code() TagCode {
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

// Tag returns the tag c encodes.
func (c TagCode) Tag() Tag { return tagInventory[c] }

// IsNoun reports whether the tag denotes a noun of any kind.
func (t Tag) IsNoun() bool { return t == NN || t == NNS || t == NNP }

// IsVerb reports whether the tag denotes a verb form.
func (t Tag) IsVerb() bool {
	switch t {
	case VB, VBZ, VBG, VBN, VBD:
		return true
	}
	return false
}

// lexicon maps a lower-cased word to its admissible tags, most likely
// first. The tagger's initial pass assigns the first tag; contextual
// transformation rules may switch to one of the later tags.
//
// The vocabulary covers the function words of English plus the open-class
// words that occur in interface labels and in the synthetic Surface-Web
// corpus. Unknown words are handled by morphological heuristics in the
// tagger.
var lexicon = map[string][]Tag{
	// Determiners.
	"the": {DT}, "a": {DT}, "an": {DT}, "any": {DT}, "all": {DT},
	"each": {DT}, "every": {DT}, "some": {DT}, "no": {DT}, "this": {DT},
	"these": {DT}, "that": {DT, IN}, "those": {DT},

	// Prepositions.
	"from": {IN}, "of": {IN}, "in": {IN}, "on": {IN}, "at": {IN},
	"by": {IN}, "with": {IN}, "within": {IN}, "near": {IN}, "between": {IN},
	"under": {IN}, "over": {IN}, "per": {IN}, "for": {IN}, "as": {IN},
	"into": {IN}, "through": {IN}, "during": {IN}, "before": {IN},
	"after": {IN}, "since": {IN}, "until": {IN}, "about": {IN, RB},
	"via": {IN}, "above": {IN}, "below": {IN},

	// "to" gets its own tag; it behaves as a preposition in labels
	// ("to city") and as an infinitive marker before verbs.
	"to": {TO},

	// Conjunctions.
	"and": {CC}, "or": {CC}, "but": {CC}, "nor": {CC},

	// Pronouns and wh-words.
	"i": {PRP}, "you": {PRP}, "we": {PRP}, "it": {PRP}, "they": {PRP},
	"your": {PRP}, "my": {PRP}, "our": {PRP}, "their": {PRP}, "its": {PRP},
	"which": {WDT}, "what": {WDT}, "where": {WDT}, "when": {WDT},

	// Copulas and auxiliaries.
	"is": {VBZ}, "are": {VBZ}, "was": {VBD}, "were": {VBD}, "be": {VB},
	"been": {VBN}, "being": {VBG}, "has": {VBZ}, "have": {VB},
	"had": {VBD}, "do": {VB}, "does": {VBZ}, "did": {VBD},
	"can": {VB}, "will": {VB}, "would": {VB}, "may": {VB}, "must": {VB},
	"should": {VB},

	// Verbs common in interface labels and corpus sentences.
	"depart": {VB}, "departing": {VBG}, "departs": {VBZ},
	"arrive": {VB}, "arriving": {VBG}, "arrives": {VBZ},
	"leave": {VB}, "leaving": {VBG}, "go": {VB}, "going": {VBG},
	"travel": {VB, NN}, "traveling": {VBG},
	"fly": {VB}, "flying": {VBG}, "flies": {VBZ},
	"search": {VB, NN}, "find": {VB}, "browse": {VB}, "enter": {VB},
	"select": {VB}, "choose": {VB}, "pick": {VB}, "sort": {VB, NN},
	"show": {VB}, "list": {VB, NN}, "view": {VB, NN}, "get": {VB},
	"buy": {VB}, "sell": {VB}, "rent": {VB, NN}, "offer": {VB, NN},
	"offers": {VBZ, NNS}, "offered": {VBN},
	"include": {VB}, "includes": {VBZ}, "including": {VBG},
	"located": {VBN}, "situated": {VBN}, "operated": {VBN},
	"published": {VBN}, "written": {VBN}, "serves": {VBZ},
	"serve": {VB}, "flights": {NNS}, "flight": {NN},
	"looking": {VBG}, "specify": {VB}, "provide": {VB},
	"posted": {VBN}, "updated": {VBN}, "required": {VBN, JJ},
	"wanted": {VBN}, "needed": {VBN},

	// Adjectives common in labels.
	"first": {JJ}, "last": {JJ}, "new": {JJ}, "used": {JJ, VBN},
	"min": {JJ}, "max": {JJ}, "minimum": {JJ, NN}, "maximum": {JJ, NN},
	"low": {JJ}, "high": {JJ}, "lowest": {JJ}, "highest": {JJ},
	"full": {JJ}, "part": {NN, JJ}, "one": {CD}, "round": {JJ, NN},
	"economy": {NN}, "business": {NN}, "main": {JJ}, "other": {JJ},
	"such": {JJ}, "many": {JJ}, "more": {JJ}, "most": {JJ},
	"several": {JJ}, "various": {JJ}, "popular": {JJ}, "major": {JJ},
	"available": {JJ}, "local": {JJ}, "nearby": {JJ}, "total": {JJ, NN},
	"square": {JJ, NN}, "annual": {JJ}, "monthly": {JJ}, "hourly": {JJ},
	"early": {JJ}, "late": {JJ}, "great": {JJ}, "good": {JJ},
	"best": {JJ}, "top": {JJ, NN}, "cheap": {JJ}, "direct": {JJ},
	"nonstop": {JJ}, "international": {JJ}, "domestic": {JJ},
	"certified": {JJ, VBN}, "preferred": {JJ, VBN},

	// Adverbs.
	"not": {RB}, "only": {RB}, "also": {RB}, "here": {RB},
	"there": {RB}, "now": {RB}, "very": {RB}, "well": {RB},
	"often": {RB}, "usually": {RB}, "typically": {RB},

	// Nouns that look like verbs or are otherwise ambiguous in labels.
	// "return" and "check" are noun modifiers in labels ("return date",
	// "check in") but verbs after "to" — contextual rules handle the flip.
	"return": {NN, VB}, "check": {NN, VB}, "stop": {NN, VB},
	"stops": {NNS, VBZ}, "make": {NN, VB}, "model": {NN},
	"type": {NN, VB}, "state": {NN, VB}, "name": {NN, VB},
	"price": {NN, VB}, "title": {NN}, "zip": {NN}, "code": {NN},
	"city": {NN}, "cities": {NNS}, "date": {NN}, "dates": {NNS},
	"time": {NN}, "times": {NNS}, "airline": {NN}, "airlines": {NNS},
	"carrier": {NN}, "carriers": {NNS}, "airport": {NN}, "airports": {NNS},
	"passenger": {NN}, "passengers": {NNS}, "adult": {NN}, "adults": {NNS},
	"child": {NN}, "children": {NNS}, "infant": {NN}, "infants": {NNS},
	"class": {NN}, "classes": {NNS}, "service": {NN}, "services": {NNS},
	"cabin": {NN}, "trip": {NN}, "trips": {NNS}, "fare": {NN},
	"fares": {NNS}, "ticket": {NN}, "tickets": {NNS},
	"destination": {NN}, "destinations": {NNS}, "origin": {NN},
	"departure": {NN}, "departures": {NNS}, "arrival": {NN},
	"month": {NN}, "months": {NNS}, "day": {NN}, "days": {NNS},
	"year": {NN}, "years": {NNS},
	"car": {NN}, "cars": {NNS}, "vehicle": {NN}, "vehicles": {NNS},
	"makes": {NNS, VBZ}, "models": {NNS}, "mileage": {NN}, "miles": {NNS},
	"mile": {NN}, "color": {NN}, "colors": {NNS}, "body": {NN},
	"style": {NN}, "styles": {NNS}, "condition": {NN}, "engine": {NN},
	"transmission": {NN}, "dealer": {NN}, "dealers": {NNS},
	"book": {NN, VB}, "books": {NNS}, "author": {NN}, "authors": {NNS},
	"publisher": {NN}, "publishers": {NNS}, "isbn": {NN},
	"keyword": {NN}, "keywords": {NNS}, "subject": {NN},
	"subjects": {NNS}, "category": {NN}, "categories": {NNS},
	"format": {NN}, "formats": {NNS}, "edition": {NN}, "editions": {NNS},
	"language": {NN}, "languages": {NNS}, "genre": {NN}, "genres": {NNS},
	"job": {NN}, "jobs": {NNS}, "company": {NN}, "companies": {NNS},
	"employer": {NN}, "employers": {NNS}, "salary": {NN},
	"salaries": {NNS}, "industry": {NN}, "industries": {NNS},
	"position": {NN}, "positions": {NNS}, "occupation": {NN},
	"occupations": {NNS}, "skill": {NN}, "skills": {NNS},
	"experience": {NN}, "education": {NN}, "degree": {NN},
	"degrees": {NNS}, "location": {NN}, "locations": {NNS},
	"description": {NN}, "field": {NN}, "fields": {NNS},
	"home": {NN}, "homes": {NNS}, "house": {NN}, "houses": {NNS},
	"property": {NN}, "properties": {NNS}, "bedroom": {NN},
	"bedrooms": {NNS}, "bathroom": {NN}, "bathrooms": {NNS},
	"bath": {NN}, "baths": {NNS}, "bed": {NN}, "beds": {NNS},
	"acreage": {NN}, "acre": {NN}, "acres": {NNS}, "feet": {NNS},
	"foot": {NN}, "lot": {NN}, "size": {NN}, "area": {NN},
	"neighborhood": {NN}, "county": {NN}, "counties": {NNS},
	"agent": {NN}, "agents": {NNS}, "listing": {NN}, "listings": {NNS},
	"number": {NN}, "numbers": {NNS}, "range": {NN}, "ranges": {NNS},
	"amount": {NN}, "value": {NN}, "values": {NNS}, "option": {NN},
	"options": {NNS}, "status": {NN}, "level": {NN}, "levels": {NNS},
	"country": {NN}, "countries": {NNS}, "region": {NN},
	"regions": {NNS}, "address": {NN}, "email": {NN}, "phone": {NN},
	"seller": {NN}, "sellers": {NNS}, "buyer": {NN}, "buyers": {NNS},
	"reference": {NN}, "id": {NN}, "person": {NN}, "people": {NNS},
	"variety": {NN}, "example": {NN}, "examples": {NNS},
	"bookstore": {NN}, "store": {NN}, "stores": {NNS}, "site": {NN},
	"web": {NN}, "website": {NN}, "page": {NN}, "pages": {NNS},
	"world": {NN}, "unit": {NN}, "units": {NNS},
}

// allowsTag reports whether the lexicon permits tag for word; unknown
// words permit any tag.
func allowsTag(word string, tag Tag) bool {
	tags, ok := lexicon[word]
	if !ok {
		return true
	}
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}
