package nlp

import (
	"fmt"
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
