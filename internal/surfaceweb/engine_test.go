package surfaceweb

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"webiq/internal/nlp"
)

func newTestEngine() *Engine {
	e := NewEngine()
	e.Add("p0", "Departure cities such as Boston, Chicago, and LAX are served daily.")
	e.Add("p1", "Make: Honda. Model: Accord. Used cars for sale.")
	e.Add("p2", "Airlines such as Delta, United, and Air Canada fly from Boston.")
	e.Add("p3", "Random noise about online services and customer support.")
	e.Add("p4", "The author of the book is Mark Twain. Book title and isbn available.")
	return e
}

func TestParseQuery(t *testing.T) {
	q := ParseQuery(`"authors such as" +book +title +isbn`)
	if !reflect.DeepEqual(q.Phrase, []string{"authors", "such", "as"}) {
		t.Errorf("phrase = %v", q.Phrase)
	}
	if !reflect.DeepEqual(q.Required, []string{"book", "title", "isbn"}) {
		t.Errorf("required = %v", q.Required)
	}
}

func TestParseQueryBareTerms(t *testing.T) {
	q := ParseQuery(`make honda`)
	if len(q.Phrase) != 0 {
		t.Errorf("phrase = %v, want empty", q.Phrase)
	}
	if !reflect.DeepEqual(q.Required, []string{"make", "honda"}) {
		t.Errorf("required = %v", q.Required)
	}
}

func TestParseQueryOnlyPhrase(t *testing.T) {
	q := ParseQuery(`"departure cities such as"`)
	if !reflect.DeepEqual(q.Phrase, []string{"departure", "cities", "such", "as"}) {
		t.Errorf("phrase = %v", q.Phrase)
	}
	if len(q.Required) != 0 {
		t.Errorf("required = %v", q.Required)
	}
}

func TestNumHitsPhrase(t *testing.T) {
	e := newTestEngine()
	if got := e.NumHits(`"such as"`); got != 2 {
		t.Errorf(`NumHits("such as") = %d, want 2`, got)
	}
	if got := e.NumHits(`"departure cities such as"`); got != 1 {
		t.Errorf("NumHits = %d, want 1", got)
	}
	if got := e.NumHits(`"cities departure"`); got != 0 {
		t.Errorf("NumHits out-of-order phrase = %d, want 0", got)
	}
}

func TestNumHitsRequired(t *testing.T) {
	e := newTestEngine()
	if got := e.NumHits(`"such as" +boston`); got != 2 {
		t.Errorf("NumHits = %d, want 2 (p0 and p2 have phrase+boston)", got)
	}
	if got := e.NumHits(`"such as" +honda`); got != 0 {
		t.Errorf("NumHits = %d, want 0 (no doc has both)", got)
	}
	if got := e.NumHits(`boston`); got != 2 {
		t.Errorf("NumHits(boston) = %d, want 2", got)
	}
	if got := e.NumHits(`+nonexistentword`); got != 0 {
		t.Errorf("NumHits = %d, want 0", got)
	}
}

func TestNumHitsCaseInsensitive(t *testing.T) {
	e := newTestEngine()
	if e.NumHits(`"MAKE honda"`) != e.NumHits(`"make Honda"`) {
		t.Error("hit counts should be case insensitive")
	}
}

func TestPhraseAcrossPunctuation(t *testing.T) {
	// "Make: Honda" indexes as adjacent words, so the proximity
	// validation query "make honda" matches.
	e := newTestEngine()
	if got := e.NumHits(`"make honda"`); got != 1 {
		t.Errorf("NumHits = %d, want 1", got)
	}
}

func TestSearchSnippets(t *testing.T) {
	e := newTestEngine()
	snips := e.Search(`"such as"`, 10)
	if len(snips) != 2 {
		t.Fatalf("got %d snippets, want 2", len(snips))
	}
	if !strings.Contains(snips[0].Text, "such as") {
		t.Errorf("snippet %q lacks phrase", snips[0].Text)
	}
	if !strings.Contains(snips[0].Text, "Boston") {
		t.Errorf("snippet %q lacks completion", snips[0].Text)
	}
}

// TestSnippetTokens pins Snippet.Tokens to tagging the snippet text:
// engine snippets expand their packed tags, hand-built ones (no tags, or
// tags of another text) are tagged afresh.
func TestSnippetTokens(t *testing.T) {
	var tg nlp.Tagger
	snips := newTestEngine().Search(`"such as"`, 10)
	if len(snips) == 0 {
		t.Fatal("no snippets")
	}
	for _, s := range snips {
		if s.Tagged.Text() != s.Text {
			t.Errorf("engine snippet %q served without its tags", s.Text)
		}
		if got, want := s.Tokens(nil), tg.TagAppend(nil, s.Text); !reflect.DeepEqual(got, want) {
			t.Errorf("Tokens(%q) = %v, want %v", s.Text, got, want)
		}
	}
	stale := snips[0]
	stale.Text = "Makes such as Honda and Ford."
	for _, s := range []Snippet{{Text: "Airlines such as KLM."}, stale, {}} {
		if got, want := s.Tokens(nil), tg.TagAppend(nil, s.Text); !reflect.DeepEqual(got, want) {
			t.Errorf("hand-built Tokens(%q) = %v, want %v", s.Text, got, want)
		}
	}
}

func TestSearchTopK(t *testing.T) {
	e := newTestEngine()
	snips := e.Search(`"such as"`, 1)
	if len(snips) != 1 {
		t.Errorf("got %d snippets, want 1", len(snips))
	}
}

func TestSearchNoMatch(t *testing.T) {
	e := newTestEngine()
	if snips := e.Search(`"zebras such as"`, 5); len(snips) != 0 {
		t.Errorf("got %v, want none", snips)
	}
}

func TestQueryAccounting(t *testing.T) {
	e := newTestEngine()
	e.NumHits("boston")
	e.Search(`"such as"`, 3)
	if got := e.QueryCount(); got != 2 {
		t.Errorf("QueryCount = %d, want 2", got)
	}
	vt := e.VirtualTime()
	if vt < 2*e.MinLatency || vt > 2*e.MaxLatency {
		t.Errorf("VirtualTime = %v out of [%v,%v]", vt, 2*e.MinLatency, 2*e.MaxLatency)
	}
}

func TestVirtualTimeDeterministic(t *testing.T) {
	a, b := newTestEngine(), newTestEngine()
	a.NumHits("boston")
	b.NumHits("boston")
	if a.VirtualTime() != b.VirtualTime() {
		t.Error("virtual latency should be deterministic per query")
	}
}

func TestFixedLatency(t *testing.T) {
	e := newTestEngine()
	e.MinLatency, e.MaxLatency = 200*time.Millisecond, 200*time.Millisecond
	e.NumHits("boston")
	if e.VirtualTime() != 200*time.Millisecond {
		t.Errorf("VirtualTime = %v, want 200ms", e.VirtualTime())
	}
}

func TestSnippetWindow(t *testing.T) {
	e := NewEngine()
	e.SnippetRadius = 2
	long := "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda"
	e.Add("t", long)
	snips := e.Search(`"zeta eta"`, 1)
	if len(snips) != 1 {
		t.Fatal("no snippet")
	}
	want := "delta epsilon zeta eta theta iota"
	if snips[0].Text != want {
		t.Errorf("snippet = %q, want %q", snips[0].Text, want)
	}
}

func TestEmptyQueryNoMatch(t *testing.T) {
	e := newTestEngine()
	if got := e.NumHits(""); got != 0 {
		t.Errorf("NumHits(\"\") = %d, want 0", got)
	}
}

func TestSearchRankedByRelevance(t *testing.T) {
	e := NewEngine()
	weak := e.Add("weak", "Airlines such as Delta fly here.")
	strong := e.Add("strong", "Airlines such as Delta. Airlines such as United. Airlines such as American.")
	snips := e.Search(`"airlines such as"`, 2)
	if len(snips) != 2 {
		t.Fatalf("snippets = %d", len(snips))
	}
	if snips[0].DocID != strong {
		t.Errorf("first result = doc %d, want the higher-frequency doc %d", snips[0].DocID, strong)
	}
	if snips[1].DocID != weak {
		t.Errorf("second result = doc %d, want %d", snips[1].DocID, weak)
	}
}

func TestSearchRankTieBreaksByID(t *testing.T) {
	e := NewEngine()
	a := e.Add("a", "make honda for sale")
	b := e.Add("b", "make honda for sale")
	snips := e.Search(`"make honda"`, 2)
	if snips[0].DocID != a || snips[1].DocID != b {
		t.Errorf("tie-break order = %v, want [%d %d]", snips, a, b)
	}
}
