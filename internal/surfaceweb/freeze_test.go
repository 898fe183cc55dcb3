package surfaceweb

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"webiq/internal/kb"
	"webiq/internal/nlp"
)

// freezeEngine extracts and wraps a frozen copy of e, failing the test
// on error.
func freezeEngine(t *testing.T, e *Engine, vocabLimit int) *Engine {
	t.Helper()
	fi, err := e.ExtractFrozen(vocabLimit)
	if err != nil {
		t.Fatalf("ExtractFrozen: %v", err)
	}
	return NewFrozenEngine(fi)
}

// TestFrozenEngineEquivalence pins the frozen read path against the
// mutable engine on the hand-crafted batch corpus: every public read —
// hit counts, batched hit counts, ranked search with snippets, corpus
// statistics, and query accounting — must agree exactly.
func TestFrozenEngineEquivalence(t *testing.T) {
	mut := batchTestEngine()
	fro := freezeEngine(t, batchTestEngine(), -1)
	queries := batchTestQueries()

	if got, want := fro.NumDocs(), mut.NumDocs(); got != want {
		t.Errorf("NumDocs: frozen %d, mutable %d", got, want)
	}
	if got, want := fro.Vocabulary(), mut.Vocabulary(); got != want {
		t.Errorf("Vocabulary: frozen %d, mutable %d", got, want)
	}
	for _, term := range []string{"authors", "hemingway", "zzz", "Novels", ""} {
		if got, want := fro.TermFrequency(term), mut.TermFrequency(term); got != want {
			t.Errorf("TermFrequency(%q): frozen %d, mutable %d", term, got, want)
		}
	}
	for _, q := range queries {
		if got, want := fro.NumHits(q), mut.NumHits(q); got != want {
			t.Errorf("NumHits(%q): frozen %d, mutable %d", q, got, want)
		}
		for _, k := range []int{0, 1, 3, 100} {
			got, want := fro.Search(q, k), mut.Search(q, k)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Search(%q, %d):\nfrozen  %v\nmutable %v", q, k, got, want)
			}
		}
	}
	if got, want := fro.NumHitsBatch(queries), mut.NumHitsBatch(queries); !reflect.DeepEqual(got, want) {
		t.Errorf("NumHitsBatch:\nfrozen  %v\nmutable %v", got, want)
	}
	if got, want := fro.QueryCount(), mut.QueryCount(); got != want {
		t.Errorf("QueryCount: frozen %d, mutable %d", got, want)
	}
	if got, want := fro.VirtualTime(), mut.VirtualTime(); got != want {
		t.Errorf("VirtualTime: frozen %v, mutable %v", got, want)
	}
}

// TestFrozenEngineEquivalenceCorpus repeats the equivalence check on a
// generated corpus — realistic page mix, larger posting lists — with
// queries the validator actually issues.
func TestFrozenEngineEquivalenceCorpus(t *testing.T) {
	cfg := DefaultCorpusConfig().Scaled(0.2)
	mut := NewEngine()
	BuildCorpus(mut, kb.Domains(), cfg)
	base := NewEngine()
	BuildCorpus(base, kb.Domains(), cfg)
	fro := freezeEngine(t, base, -1)

	var queries []string
	for _, d := range kb.Domains() {
		for _, c := range d.Concepts {
			name := strings.ToLower(c.Name)
			queries = append(queries,
				fmt.Sprintf("%q", name+"s such as"),
				fmt.Sprintf("%q +%s", name, d.DomainKeyword),
				"+"+name,
			)
			for _, inst := range c.AllInstances()[:min(2, len(c.AllInstances()))] {
				queries = append(queries, fmt.Sprintf("%q", strings.ToLower(inst)))
			}
		}
	}
	for _, q := range queries {
		if got, want := fro.NumHits(q), mut.NumHits(q); got != want {
			t.Errorf("NumHits(%q): frozen %d, mutable %d", q, got, want)
		}
		got, want := fro.Search(q, 5), mut.Search(q, 5)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Search(%q):\nfrozen  %v\nmutable %v", q, got, want)
		}
	}
	if got, want := fro.NumHitsBatch(queries), mut.NumHitsBatch(queries); !reflect.DeepEqual(got, want) {
		t.Errorf("NumHitsBatch disagrees:\nfrozen  %v\nmutable %v", got, want)
	}
}

// TestFrozenVocabLimit pins the snapshot-critical property: extracting
// with the vocabulary size captured before any query was compiled
// excludes query-interned terms, so the frozen table matches a freshly
// built engine's.
func TestFrozenVocabLimit(t *testing.T) {
	e := batchTestEngine()
	v0 := e.Terms().Len()
	// Compiling interns query-only terms past v0.
	e.NumHits(`"totally unseen phrase"`)
	if e.Terms().Len() <= v0 {
		t.Fatalf("compile did not grow the table (%d <= %d)", e.Terms().Len(), v0)
	}
	fro := freezeEngine(t, e, v0)
	if got := fro.Terms().Len(); got != v0 {
		t.Errorf("frozen table has %d terms, want %d", got, v0)
	}
	if id := fro.Terms().Intern("unseen"); id != nlp.NoTerm {
		t.Errorf("query-only term survived the vocabulary limit: id %d", id)
	}
	// A limit that would drop an indexed term must be refused.
	if _, err := e.ExtractFrozen(1); err == nil {
		t.Error("ExtractFrozen accepted a limit excluding indexed terms")
	}
}

// TestFrozenEngineConcurrent runs the full read battery from many
// goroutines under -race: the frozen path must be lock-free safe.
func TestFrozenEngineConcurrent(t *testing.T) {
	fro := freezeEngine(t, batchTestEngine(), -1)
	queries := batchTestQueries()
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = fro.NumHits(q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i, q := range queries {
					if got := fro.NumHits(q); got != want[i] {
						t.Errorf("NumHits(%q) = %d, want %d", q, got, want[i])
						return
					}
					fro.Search(q, 3)
				}
				got := fro.NumHitsBatch(queries)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("NumHitsBatch = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrozenAddPanics pins the API contract: a frozen engine refuses
// growth loudly (misuse), unlike snapshot corruption (errors).
func TestFrozenAddPanics(t *testing.T) {
	fro := freezeEngine(t, batchTestEngine(), -1)
	defer func() {
		if recover() == nil {
			t.Error("Add on a frozen engine did not panic")
		}
	}()
	fro.Add("t", "text")
}

// TestExtractFrozenRoundTrip checks Data() survives a reconstruction
// through NewFrozenIndex — the path a snapshot load takes.
func TestExtractFrozenRoundTrip(t *testing.T) {
	fi, err := batchTestEngine().ExtractFrozen(-1)
	if err != nil {
		t.Fatalf("ExtractFrozen: %v", err)
	}
	fi2, err := NewFrozenIndex(fi.Terms(), fi.Data())
	if err != nil {
		t.Fatalf("NewFrozenIndex: %v", err)
	}
	a, b := NewFrozenEngine(fi), NewFrozenEngine(fi2)
	for _, q := range batchTestQueries() {
		if x, y := a.NumHits(q), b.NumHits(q); x != y {
			t.Errorf("NumHits(%q): %d vs %d after round trip", q, x, y)
		}
	}
	fro := NewFrozenEngine(fi)
	fi3, err := fro.ExtractFrozen(-1)
	if err != nil {
		t.Fatalf("ExtractFrozen on frozen engine: %v", err)
	}
	if fi3 != fi {
		t.Error("ExtractFrozen on a frozen engine did not return its index")
	}
}

// TestNewFrozenIndexRejectsMalformed corrupts each structural invariant
// in turn: construction must fail with an error, never panic.
func TestNewFrozenIndexRejectsMalformed(t *testing.T) {
	base, err := batchTestEngine().ExtractFrozen(-1)
	if err != nil {
		t.Fatalf("ExtractFrozen: %v", err)
	}
	terms := base.Terms()
	cases := []struct {
		name    string
		mutate  func(d *FrozenData)
		noTerms bool
	}{
		{"unfrozen terms", func(d *FrozenData) {}, true},
		{"empty term offsets", func(d *FrozenData) { d.TermOff = nil }, false},
		{"term count mismatch", func(d *FrozenData) { d.TermOff = d.TermOff[:len(d.TermOff)-1] }, false},
		{"term offsets nonzero start", func(d *FrozenData) {
			d.TermOff = append([]uint64{1}, d.TermOff[1:]...)
		}, false},
		{"term offsets overflow", func(d *FrozenData) {
			o := append([]uint64(nil), d.TermOff...)
			o[len(o)-1] += 7
			d.TermOff = o
		}, false},
		{"position offsets truncated", func(d *FrozenData) { d.PostPosOff = d.PostPosOff[:2] }, false},
		{"positions truncated", func(d *FrozenData) { d.Positions = d.Positions[:3] }, false},
		{"posting doc out of range", func(d *FrozenData) {
			p := append([]uint32(nil), d.PostDoc...)
			p[0] = 1 << 30
			d.PostDoc = p
		}, false},
		{"posting docs not ascending", func(d *FrozenData) {
			// Duplicate a doc inside the first multi-entry term.
			p := append([]uint32(nil), d.PostDoc...)
			for t := 0; t < len(d.TermOff)-1; t++ {
				if d.TermOff[t+1]-d.TermOff[t] >= 2 {
					p[d.TermOff[t]+1] = p[d.TermOff[t]]
					break
				}
			}
			d.PostDoc = p
		}, false},
		{"token arrays disagree", func(d *FrozenData) { d.TokEnd = d.TokEnd[:1] }, false},
		{"token offsets truncated", func(d *FrozenData) { d.DocTokOff = d.DocTokOff[:2] }, false},
		{"token span outside text", func(d *FrozenData) {
			e := append([]uint32(nil), d.TokEnd...)
			e[0] = 1 << 30
			d.TokEnd = e
		}, false},
		{"token spans overlap", func(d *FrozenData) {
			s := append([]uint32(nil), d.TokStart...)
			s[1] = 0
			d.TokStart = s
		}, false},
		{"text blob truncated", func(d *FrozenData) { d.TextBlob = d.TextBlob[:len(d.TextBlob)-1] }, false},
		{"title offsets mismatch", func(d *FrozenData) { d.TitleOff = d.TitleOff[:len(d.TitleOff)-1] }, false},
	}
	for _, tc := range cases {
		d := base.Data()
		tc.mutate(&d)
		tt := terms
		if tc.noTerms {
			tt = nlp.NewTermTable()
		}
		if _, err := NewFrozenIndex(tt, d); err == nil {
			t.Errorf("%s: NewFrozenIndex accepted corrupt data", tc.name)
		} else if !strings.Contains(err.Error(), "frozen index") {
			t.Errorf("%s: unhelpful error %v", tc.name, err)
		}
	}
}
