package nlp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestTermTableBasic(t *testing.T) {
	tab := NewTermTable()
	if tab.Len() != 0 {
		t.Fatalf("empty table Len = %d, want 0", tab.Len())
	}
	a := tab.Intern("city")
	b := tab.Intern("state")
	if a == b {
		t.Fatalf("distinct terms share id %d", a)
	}
	if got := tab.Intern("city"); got != a {
		t.Errorf("re-intern(city) = %d, want %d", got, a)
	}
	if got := tab.InternBytes([]byte("state")); got != b {
		t.Errorf("InternBytes(state) = %d, want %d", got, b)
	}
	if got, ok := tab.Lookup("city"); !ok || got != a {
		t.Errorf("Lookup(city) = %d,%v, want %d,true", got, ok, a)
	}
	if _, ok := tab.Lookup("zip"); ok {
		t.Error("Lookup(zip) reported ok for an unseen term")
	}
	if got, ok := tab.LookupBytes([]byte("state")); !ok || got != b {
		t.Errorf("LookupBytes(state) = %d,%v, want %d,true", got, ok, b)
	}
	if tab.Term(a) != "city" || tab.Term(b) != "state" {
		t.Errorf("Term round-trip: got %q,%q", tab.Term(a), tab.Term(b))
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

func TestTermTableDenseIDs(t *testing.T) {
	tab := NewTermTable()
	for i := 0; i < 100; i++ {
		id := tab.Intern(fmt.Sprintf("term-%d", i))
		if id != uint32(i) {
			t.Fatalf("Intern #%d assigned id %d; ids must be dense in first-seen order", i, id)
		}
	}
}

func TestTermTableConcurrent(t *testing.T) {
	tab := NewTermTable()
	const goroutines = 8
	const terms = 200
	var wg sync.WaitGroup
	ids := make([][]uint32, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]uint32, terms)
			for i := 0; i < terms; i++ {
				// Every goroutine interns the same term set, half via
				// the byte-slice path.
				s := fmt.Sprintf("w%03d", i)
				if g%2 == 0 {
					ids[g][i] = tab.Intern(s)
				} else {
					ids[g][i] = tab.InternBytes([]byte(s))
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() != terms {
		t.Fatalf("Len = %d, want %d", tab.Len(), terms)
	}
	for g := 1; g < goroutines; g++ {
		for i := 0; i < terms; i++ {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got id %d for term %d, goroutine 0 got %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
	for i := 0; i < terms; i++ {
		want := fmt.Sprintf("w%03d", i)
		if got := tab.Term(ids[0][i]); got != want {
			t.Fatalf("Term(%d) = %q, want %q", ids[0][i], got, want)
		}
	}
}

func TestTermTableLookupBytesNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tab := NewTermTable()
	tab.Intern("departure")
	buf := []byte("departure")
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := tab.LookupBytes(buf); !ok {
			t.Fatal("lookup miss")
		}
		if id := tab.InternBytes(buf); id != 0 {
			t.Fatalf("id = %d", id)
		}
	})
	if allocs != 0 {
		t.Errorf("LookupBytes/InternBytes hit path allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAppendWordIDs requires the IDs of Words' norms, in order, with
// NoTerm for a word never interned — including words whose lower-case
// form changes byte length (U+0130, the Kelvin sign).
func TestAppendWordIDs(t *testing.T) {
	tab := NewTermTable()
	for _, w := range Words("such authors as \u0130stanbul \u212aelvin $15,200 3.5") {
		tab.Intern(w)
	}
	tab.Freeze()
	for _, in := range []string{
		"", "  ,; ", "Such AUTHORS as", "\"authors such as\" +book", "\u0130STANBUL \u212aELVIN Kelvin",
		"$15,200 and 3.5 unknownword", "such-as o'hare \xff",
	} {
		var want []uint32
		for _, w := range Words(in) {
			want = append(want, tab.Intern(w))
		}
		if got := tab.AppendWordIDs(nil, in); !reflect.DeepEqual(got, want) {
			t.Errorf("AppendWordIDs(%q) = %v, want %v", in, got, want)
		}
	}
}
