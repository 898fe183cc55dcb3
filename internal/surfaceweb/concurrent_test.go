package surfaceweb

import (
	"sync"
	"testing"
	"time"

	"webiq/internal/obs"
)

// TestConcurrentQueryStress drives NumHits/Search/accessor traffic from
// many goroutines against one engine (and a cache over it). Run under
// -race it pins the lock-split design: the read path must never race
// with accounting, metrics, or snapshot reads.
func TestConcurrentQueryStress(t *testing.T) {
	e := cacheFixture()
	r := obs.NewRegistry()
	e.Instrument(r)
	c := NewCachedEngine(e, 4)
	c.Instrument(r)

	queries := []string{
		`"makes such as"`, `"authors such as"`, `"honda"`, `"toyota"`,
		`"makes such as" +honda`, `"authors such as" +king`, `"missing term xyzzy"`,
	}
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := queries[(g*7+i)%len(queries)]
				switch i % 4 {
				case 0:
					e.NumHits(q)
				case 1:
					e.Search(q, 3)
				case 2:
					c.NumHits(q)
				default:
					c.Search(q, 3)
				}
				if i%10 == 0 {
					e.QueryCount()
					e.VirtualTime()
					e.NumDocs()
				}
			}
		}(g)
	}
	wg.Wait()

	// Every query the engine executed is visible in both accountings.
	direct := goroutines * 50 / 2 // cases 0 and 1 bypass the cache
	if got := e.QueryCount(); got < direct {
		t.Errorf("engine query count %d < %d direct queries", got, direct)
	}
	if e.VirtualTime() <= 0 {
		t.Error("virtual time not accumulated")
	}
}

// TestQueryLatencyMatchesCharge pins QueryLatency as the exact amount a
// served query adds to the virtual clock (cache layers rely on it).
func TestQueryLatencyMatchesCharge(t *testing.T) {
	e := cacheFixture()
	q := `"authors such as" +king`
	e.NumHits(q)
	if got, want := e.VirtualTime(), e.QueryLatency(q); got != want {
		t.Errorf("charged %v, QueryLatency says %v", got, want)
	}
	if lat := e.QueryLatency(q); lat < e.MinLatency || lat >= e.MaxLatency {
		t.Errorf("latency %v outside [%v, %v)", lat, e.MinLatency, e.MaxLatency)
	}
	var _ time.Duration = e.QueryLatency(q)
}
