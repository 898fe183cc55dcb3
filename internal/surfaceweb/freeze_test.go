package surfaceweb

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"webiq/internal/nlp"
)

// TestFirstReadFreezes pins when an engine freezes and what that
// means: any first read — including compiling a query — freezes it
// before interning anything, so words only a query uses never enter the
// corpus vocabulary, and Add after the freeze panics.
func TestFirstReadFreezes(t *testing.T) {
	reads := map[string]func(e *Engine){
		"Compile":      func(e *Engine) { e.Compile(`"totally unseen phrase" +zzzq`) },
		"NumHits":      func(e *Engine) { e.NumHits(`"authors such as zzzq"`) },
		"Search":       func(e *Engine) { e.Search(`zzzq authors`, 3) },
		"NumHitsBatch": func(e *Engine) { e.NumHitsBatch(nil) },
		"Index":        func(e *Engine) { e.Index() },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			e := batchTestEngine()
			v0 := e.Terms().Len()
			read(e)
			if !e.Terms().Frozen() {
				t.Fatal("the first read left the term table growing")
			}
			if got := e.Terms().Len(); got != v0 {
				t.Errorf("term table grew from %d to %d terms", v0, got)
			}
			if id := e.Compile(`zzzq`).Required[0]; id != nlp.NoTerm {
				t.Errorf("unseen word compiled to %d, want NoTerm", id)
			}
			defer func() {
				if recover() == nil {
					t.Error("Add after the first read did not panic")
				}
			}()
			e.Add("t", "text")
		})
	}
}

// TestFrozenEngineConcurrent runs the full read battery from many
// goroutines under -race on an engine nothing has read yet: the
// goroutines race to freeze it, and the read path must be lock-free
// safe after.
func TestFrozenEngineConcurrent(t *testing.T) {
	ref := batchTestEngine()
	queries := batchTestQueries()
	want := make([]int, len(queries))
	for i, q := range queries {
		want[i] = ref.NumHits(q)
	}
	fro := batchTestEngine()
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
	fro := loadedEngine(batchTestEngine().Index())
	defer func() {
		if recover() == nil {
			t.Error("Add on a frozen engine did not panic")
		}
	}()
	fro.Add("t", "text")
}

// TestExtractFrozenRoundTrip checks a built index passes the
// structural validation and that Data() survives a reconstruction
// through NewFrozenIndex.
func TestExtractFrozenRoundTrip(t *testing.T) {
	fi := batchTestEngine().Index()
	fi2, err := NewFrozenIndex(fi.Terms(), fi.Data())
	if err != nil {
		t.Fatalf("NewFrozenIndex: %v", err)
	}
	a, b := loadedEngine(fi), loadedEngine(fi2)
	for _, q := range batchTestQueries() {
		if x, y := a.NumHits(q), b.NumHits(q); x != y {
			t.Errorf("NumHits(%q): %d vs %d after round trip", q, x, y)
		}
	}
	if a.Index() != fi {
		t.Error("Index on a loaded engine did not return its index")
	}
}

// TestNewFrozenIndexRejectsMalformed corrupts each structural invariant
// in turn: construction must fail with an error, never panic.
func TestNewFrozenIndexRejectsMalformed(t *testing.T) {
	base := batchTestEngine().Index()
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
