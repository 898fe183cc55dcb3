package nlp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTermTableFreeze(t *testing.T) {
	tab := NewTermTable()
	city := tab.Intern("city")
	state := tab.Intern("state")
	if tab.Frozen() {
		t.Fatal("fresh table reports frozen")
	}
	tab.Freeze()
	if !tab.Frozen() {
		t.Fatal("Freeze did not mark the table frozen")
	}
	if got := tab.Intern("city"); got != city {
		t.Errorf("frozen Intern(city) = %d, want %d", got, city)
	}
	if got := tab.InternBytes([]byte("state")); got != state {
		t.Errorf("frozen InternBytes(state) = %d, want %d", got, state)
	}
	if got := tab.Intern("zip"); got != NoTerm {
		t.Errorf("frozen Intern of unknown term = %d, want NoTerm", got)
	}
	if got := tab.InternBytes([]byte("zip")); got != NoTerm {
		t.Errorf("frozen InternBytes of unknown term = %d, want NoTerm", got)
	}
	if tab.Len() != 2 {
		t.Errorf("frozen table grew: Len = %d, want 2", tab.Len())
	}
	if _, ok := tab.Lookup("zip"); ok {
		t.Error("frozen Lookup(zip) reported ok after a sentinel Intern")
	}
	if got, ok := tab.Lookup("city"); !ok || got != city {
		t.Errorf("frozen Lookup(city) = %d,%v, want %d,true", got, ok, city)
	}
	if got := tab.Term(state); got != "state" {
		t.Errorf("frozen Term(%d) = %q, want state", state, got)
	}
}

// TestTermTableFrozenConcurrentReaders hammers a frozen table from many
// goroutines — known and unknown terms through every read entry point —
// under the race detector: the frozen read path takes no lock, so any
// latent mutation after Freeze would be reported as a race.
func TestTermTableFrozenConcurrentReaders(t *testing.T) {
	tab := NewTermTable()
	const terms = 300
	for i := 0; i < terms; i++ {
		tab.Intern(fmt.Sprintf("w%03d", i))
	}
	tab.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < terms; i++ {
				s := fmt.Sprintf("w%03d", i)
				if id := tab.Intern(s); id != uint32(i) {
					t.Errorf("Intern(%s) = %d, want %d", s, id, i)
					return
				}
				if id := tab.InternBytes([]byte(s)); id != uint32(i) {
					t.Errorf("InternBytes(%s) = %d, want %d", s, id, i)
					return
				}
				if got := tab.Term(uint32(i)); got != s {
					t.Errorf("Term(%d) = %q, want %q", i, got, s)
					return
				}
				unknown := fmt.Sprintf("zz%d-%d", g, i)
				if id := tab.Intern(unknown); id != NoTerm {
					t.Errorf("Intern(%s) = %d, want NoTerm", unknown, id)
					return
				}
				if _, ok := tab.Lookup(unknown); ok {
					t.Errorf("Lookup(%s) ok on frozen table", unknown)
					return
				}
				if tab.Len() != terms {
					t.Errorf("Len = %d, want %d", tab.Len(), terms)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTermTableFreezeRace races Freeze against writers: after Freeze
// returns, the table must never grow, and every writer must have gotten
// either a real ID (interned before the freeze won) or NoTerm.
func TestTermTableFreezeRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		tab := NewTermTable()
		tab.Intern("seed")
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					tab.Intern(fmt.Sprintf("r%d-g%d-%d", round, g, i))
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tab.Freeze()
		}()
		close(start)
		wg.Wait()
		n := tab.Len()
		if got := tab.Intern("post-freeze"); got != NoTerm {
			t.Fatalf("round %d: post-freeze Intern = %d, want NoTerm", round, got)
		}
		if tab.Len() != n {
			t.Fatalf("round %d: table grew after freeze: %d -> %d", round, n, tab.Len())
		}
	}
}

func TestTermTableFlattenRoundTrip(t *testing.T) {
	tab := NewTermTable()
	words := []string{"city", "state", "zip", "departure", ""}
	for _, w := range words {
		tab.Intern(w)
	}

	offsets, blob := tab.Flatten()
	if len(offsets) != len(words)+1 {
		t.Fatalf("Flatten offsets len = %d, want %d", len(offsets), len(words)+1)
	}
	ft, err := NewFrozenTermTable(offsets, string(blob))
	if err != nil {
		t.Fatalf("NewFrozenTermTable: %v", err)
	}
	if !ft.Frozen() {
		t.Fatal("reconstructed table not frozen")
	}
	if ft.Len() != len(words) {
		t.Fatalf("reconstructed Len = %d, want %d", ft.Len(), len(words))
	}
	for i, w := range words {
		if got := ft.Term(uint32(i)); got != w {
			t.Errorf("Term(%d) = %q, want %q", i, got, w)
		}
		if id, ok := ft.Lookup(w); !ok || id != uint32(i) {
			t.Errorf("Lookup(%q) = %d,%v, want %d,true", w, id, ok, i)
		}
	}
	if got := ft.Intern("late"); got != NoTerm {
		t.Errorf("Intern of unpersisted term = %d, want NoTerm", got)
	}
}

func TestNewFrozenTermTableRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		offsets []uint32
		blob    string
	}{
		{"empty offsets", nil, ""},
		{"nonzero first", []uint32{1, 2}, "ab"},
		{"short final", []uint32{0, 1}, "ab"},
		{"long final", []uint32{0, 3}, "ab"},
		{"non-monotonic", []uint32{0, 2, 1, 3}, "abc"},
		{"duplicate terms", []uint32{0, 1, 2}, "aa"},
	}
	for _, tc := range cases {
		if _, err := NewFrozenTermTable(tc.offsets, tc.blob); err == nil {
			t.Errorf("%s: NewFrozenTermTable accepted malformed input", tc.name)
		} else if !strings.Contains(err.Error(), "frozen term table") {
			t.Errorf("%s: unhelpful error %v", tc.name, err)
		}
	}
}
