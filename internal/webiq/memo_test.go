package webiq

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
)

// donorPair is one Attr-Deep validation: an instance-less attribute of
// ifc and a donor Step 1.b would borrow from.
type donorPair struct {
	ifc         *schema.Interface
	attr, donor *schema.Attribute
}

// donorPairs lists every (attribute, donor) pair of ds's instance-less
// attributes, in acquisition order, with the donors borrowDonorsFreeText
// selects before anything is acquired.
func donorPairs(ds *schema.Dataset, cfg Config) []donorPair {
	var pairs []donorPair
	sel := NewAcquirer(nil, nil, nil, Components{}, cfg)
	ix := newDonorIndex()
	for _, ifc := range ds.Interfaces {
		for _, attr := range ifc.Attributes {
			if attr.HasInstances() {
				continue
			}
			for _, donor := range sel.borrowDonorsFreeText(ix, ds, ifc, attr) {
				pairs = append(pairs, donorPair{ifc, attr, donor})
			}
		}
	}
	return pairs
}

// ask is one call that reached a backend below a component's memo.
type ask struct {
	key    string
	failed bool
}

// checkAskedOnce checks the memo's contract on the asks that reached a
// backend, in call order: a key answered once is never asked again, and
// a key is only asked again after its last ask failed. It returns how
// many asks repeated a failed one.
func checkAskedOnce(t *testing.T, asks []ask) (retried int) {
	t.Helper()
	lastFailed := map[string]bool{}
	for i, a := range asks {
		if f, seen := lastFailed[a.key]; seen {
			if !f {
				t.Fatalf("ask %d: %q reached the backend again after it was answered", i, a.key)
			}
			retried++
		}
		lastFailed[a.key] = a.failed
	}
	return retried
}

// probeAsks returns the probes log saw, keyed by submission.
func probeAsks(log *probeLog) []ask {
	out := make([]ask, len(log.calls))
	for i, c := range log.calls {
		out[i] = ask{c.ifc + "|" + c.attr + "|" + c.value, c.err != nil}
	}
	return out
}

// searchAsks returns the searches log saw, keyed by query.
func searchAsks(log *searchLog) []ask {
	out := make([]ask, len(log.calls))
	for i, c := range log.calls {
		out[i] = ask{c.query, c.failed}
	}
	return out
}

// validatePairs runs ad over every pair, recording into a fresh ledger,
// and returns one line per pair — the returned verdict and accepted
// count, then every ledger decision the call recorded — and the number
// of sample values the per-donor verdicts consulted.
func validatePairs(ad *AttrDeep, pairs []donorPair) (lines []string, consulted int) {
	ledger := obs.NewLedger(nil)
	ad.SetLedger(ledger)
	lines = make([]string, len(pairs))
	for i, p := range pairs {
		n0 := ledger.Len()
		vals, ok := ad.ValidateBorrowedCtx(context.Background(), p.ifc.ID, p.attr.ID, p.attr.Label, p.donor.Label, p.donor.AllInstances())
		lines[i] = fmt.Sprintf("ok=%v n=%d", ok, len(vals))
		for _, d := range ledger.Decisions()[n0:] {
			lines[i] += fmt.Sprintf(" | %s %s %q %v %d %s", d.Verdict, d.AttrID, d.Value, d.Score, d.Count, d.Detail)
			if d.Value == "" {
				consulted += d.Count
			}
		}
	}
	return lines, consulted
}

// TestProbeMemoAsksOncePerRun runs Attr-Deep over every book donor pair
// and checks that each distinct (interface, attribute, value)
// submission reaches the source once: a second pass over the same
// component asks nothing and decides the same, and a new component
// asks every submission again.
func TestProbeMemoAsksOncePerRun(t *testing.T) {
	_, data, pools := fixture(t)
	ds, pool := data["book"], pools["book"]
	cfg := DefaultConfig()
	pairs := donorPairs(ds, cfg)
	log := &probeLog{inner: sourceProbe(pool.Source)}

	ad := NewAttrDeep(pool, cfg)
	ad.setFallible(log)
	first, c := validatePairs(ad, pairs)
	asked := len(log.calls)
	checkAskedOnce(t, probeAsks(log))
	if asked == 0 || c <= asked {
		t.Fatalf("%d values consulted, %d probes asked; no repeated submission, the test is vacuous", c, asked)
	}
	if again, _ := validatePairs(ad, pairs); !reflect.DeepEqual(again, first) {
		t.Errorf("second pass decided otherwise:\n%q\nfirst:\n%q", again, first)
	}
	if n := len(log.calls); n != asked {
		t.Errorf("second pass over the same component asked %d probes, want 0", n-asked)
	}

	fresh := NewAttrDeep(pool, cfg)
	fresh.setFallible(log)
	if got, _ := validatePairs(fresh, pairs); !reflect.DeepEqual(got, first) {
		t.Errorf("new component decided otherwise:\n%q\nfirst:\n%q", got, first)
	}
	if n := len(log.calls) - asked; n != asked {
		t.Errorf("new component asked %d probes, want the first run's %d", n, asked)
	}
}

// TestProbeMemoAsksFailedProbeAgain runs the book donor pairs twice
// through one Attr-Deep component behind the p30 fault profile, with
// retries off: a probe that failed is not remembered, so the next need
// asks the source again, while an answered one never reaches it again.
func TestProbeMemoAsksFailedProbeAgain(t *testing.T) {
	_, data, pools := fixture(t)
	ds, pool := data["book"], pools["book"]
	cfg := DefaultConfig()
	pairs := donorPairs(ds, cfg)
	log := &probeLog{inner: resilience.NewSourceClient(
		resilience.FaultySource(sourceProbe(pool.Source), resilience.NewInjector(resilience.Profiles["p30"], 7)), noRetry)}
	ad := NewAttrDeep(pool, cfg)
	ad.setFallible(log)
	validatePairs(ad, pairs)
	validatePairs(ad, pairs)
	if retried := checkAskedOnce(t, probeAsks(log)); retried == 0 {
		t.Error("no failed probe was asked again; the test is vacuous")
	}
}

// Memo equivalence tests share one seed-1 world of the 5 paper and 20
// sweep domains.
var (
	memoWorldOnce sync.Once
	memoWorld     synth.World
	memoEngine    *surfaceweb.Engine
)

func memoWorldDomains(t *testing.T) (synth.World, *surfaceweb.Engine, []*kb.Domain) {
	t.Helper()
	memoWorldOnce.Do(func() {
		memoWorld = synth.World{Seed: 1, Domains: kb.Domains(), Scenarios: synth.Sweep(20, 1)}
		memoEngine = memoWorld.Corpus()
	})
	doms := append([]*kb.Domain(nil), memoWorld.Domains...)
	for _, sc := range memoWorld.Scenarios {
		doms = append(doms, sc.Domain)
	}
	return memoWorld, memoEngine, doms
}

// TestProbeMemoMatchesFreshComponent checks, over every donor pair of
// the 25 domains of the seed-1 world, that one Attr-Deep component per
// domain decides each pair, ledger records included, exactly as a
// fresh component per pair does, with fewer probes.
func TestProbeMemoMatchesFreshComponent(t *testing.T) {
	if testing.Short() {
		t.Skip("25 domains; skipped in -short")
	}
	w, _, doms := memoWorldDomains(t)
	cfg := DefaultConfig()
	sharedProbes, freshProbes := 0, 0
	for _, dom := range doms {
		ds := w.Dataset(dom)
		pool := w.Pool(ds)
		pairs := donorPairs(ds, cfg)
		p0 := pool.QueryCount()
		shared, _ := validatePairs(NewAttrDeep(pool, cfg), pairs)
		p1 := pool.QueryCount()
		for i, p := range pairs {
			if want, _ := validatePairs(NewAttrDeep(pool, cfg), pairs[i:i+1]); shared[i] != want[0] {
				t.Errorf("%s: %s via %q: shared component %q, fresh %q", dom.Key, p.attr.ID, p.donor.Label, shared[i], want[0])
			}
		}
		sharedProbes += p1 - p0
		freshProbes += pool.QueryCount() - p1
	}
	if sharedProbes >= freshProbes {
		t.Errorf("shared components probed %d times, fresh ones %d; the memo saved nothing", sharedProbes, freshProbes)
	}
	t.Logf("%d probes with one component per domain, %d with one per pair", sharedProbes, freshProbes)
}

// extractAll runs s's extraction over every instance-less attribute of
// ds and returns the candidates of each.
func extractAll(s *Surface, ds *schema.Dataset) [][]Candidate {
	var out [][]Candidate
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			if !a.HasInstances() {
				out = append(out, s.Extract(a, ifc, ds))
			}
		}
	}
	return out
}

// TestSearchMemoAsksOncePerRun extracts candidates for every
// instance-less attribute of each paper domain and checks that each
// distinct query reaches the engine once: a second pass over the same
// component asks nothing and extracts the same, and a new component
// asks every query again.
func TestSearchMemoAsksOncePerRun(t *testing.T) {
	eng, data, _ := fixture(t)
	cfg := DefaultConfig()
	for _, dom := range kb.Domains() {
		ds := data[dom.Key]
		log := &searchLog{inner: resilience.AdaptEngine(eng)}
		s := NewSurface(eng, NewValidator(eng, cfg), cfg)
		s.setFallible(log)
		first := extractAll(s, ds)
		asked := len(log.calls)
		checkAskedOnce(t, searchAsks(log))
		if asked == 0 {
			t.Fatalf("%s: no extraction search; the test is vacuous", dom.Key)
		}
		if again := extractAll(s, ds); !reflect.DeepEqual(again, first) {
			t.Errorf("%s: second pass extracted otherwise", dom.Key)
		}
		if n := len(log.calls); n != asked {
			t.Errorf("%s: second pass over the same component asked %d searches, want 0", dom.Key, n-asked)
		}
		fresh := NewSurface(eng, NewValidator(eng, cfg), cfg)
		fresh.setFallible(log)
		if got := extractAll(fresh, ds); !reflect.DeepEqual(got, first) {
			t.Errorf("%s: new component extracted otherwise", dom.Key)
		}
		if n := len(log.calls) - asked; n != asked {
			t.Errorf("%s: new component asked %d searches, want the first run's %d", dom.Key, n, asked)
		}
	}
}

// TestSearchMemoAsksFailedSearchAgain extracts every paper domain's
// instance-less attributes twice through one Surface component behind
// the p30 fault profile, with retries off: a search that failed is not
// remembered, so the next need asks the engine again, while an answered
// one never reaches it again.
func TestSearchMemoAsksFailedSearchAgain(t *testing.T) {
	eng, data, _ := fixture(t)
	cfg := DefaultConfig()
	log := &searchLog{inner: resilience.NewEngineClient(
		resilience.FaultyEngine(resilience.AdaptEngine(eng), resilience.NewInjector(resilience.Profiles["p30"], 7)), noRetry)}
	s := NewSurface(eng, NewValidator(eng, cfg), cfg)
	s.setFallible(log)
	for _, dom := range kb.Domains() {
		extractAll(s, data[dom.Key])
		extractAll(s, data[dom.Key])
	}
	if retried := checkAskedOnce(t, searchAsks(log)); retried == 0 {
		t.Error("no failed search was asked again; the test is vacuous")
	}
}

// TestSearchMemoMatchesFreshComponent checks, over every instance-less
// attribute of the 25 domains of the seed-1 world, that one Surface
// component per domain extracts exactly the candidates a fresh
// component per attribute does, with fewer searches.
func TestSearchMemoMatchesFreshComponent(t *testing.T) {
	if testing.Short() {
		t.Skip("25 domains; skipped in -short")
	}
	w, eng, doms := memoWorldDomains(t)
	cfg := DefaultConfig()
	sharedLog := &searchLog{inner: resilience.AdaptEngine(eng)}
	freshLog := &searchLog{inner: resilience.AdaptEngine(eng)}
	for _, dom := range doms {
		ds := w.Dataset(dom)
		shared := NewSurface(eng, NewValidator(eng, cfg), cfg)
		shared.setFallible(sharedLog)
		for _, ifc := range ds.Interfaces {
			for _, a := range ifc.Attributes {
				if a.HasInstances() {
					continue
				}
				got := shared.Extract(a, ifc, ds)
				fresh := NewSurface(eng, NewValidator(eng, cfg), cfg)
				fresh.setFallible(freshLog)
				if want := fresh.Extract(a, ifc, ds); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: %s: shared component extracted %v, fresh %v", dom.Key, a.ID, got, want)
				}
			}
		}
	}
	if s, f := len(sharedLog.calls), len(freshLog.calls); s >= f {
		t.Errorf("shared components searched %d times, fresh ones %d; the memo saved nothing", s, f)
	}
	t.Logf("%d searches with one component per domain, %d with one per attribute", len(sharedLog.calls), len(freshLog.calls))
}

// TestProbeMemoHitAllocatesNothing pins that a remembered probe builds
// its key on the stack: answering it allocates nothing.
func TestProbeMemoHitAllocatesNothing(t *testing.T) {
	_, data, pools := fixture(t)
	ifc := data["book"].Interfaces[0]
	attr := ifc.Attributes[0]
	ad := NewAttrDeep(pools["book"], DefaultConfig())
	ctx := context.Background()
	want, err := ad.probe(ctx, ifc.ID, attr.ID, "Hemingway")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := ad.probe(ctx, ifc.ID, attr.ID, "Hemingway"); got != want || err != nil {
			t.Fatalf("remembered probe answered %v, %v; first answer %v", got, err, want)
		}
	})
	if allocs != 0 {
		t.Errorf("a remembered probe allocated %v times, want 0", allocs)
	}
}

// TestSearchMemoHitAllocatesNothing pins that a remembered extraction
// search builds its key on the stack: answering it allocates nothing.
func TestSearchMemoHitAllocatesNothing(t *testing.T) {
	eng, _, _ := fixture(t)
	cfg := DefaultConfig()
	s := NewSurface(eng, NewValidator(eng, cfg), cfg)
	ctx := context.Background()
	want, err := s.search(ctx, "authors such as")
	if err != nil || len(want) == 0 {
		t.Fatalf("search answered %d snippets, %v; the test is vacuous", len(want), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := s.search(ctx, "authors such as"); len(got) != len(want) || &got[0] != &want[0] || err != nil {
			t.Fatalf("remembered search answered %d snippets, %v; not the first answer", len(got), err)
		}
	})
	if allocs != 0 {
		t.Errorf("a remembered search allocated %v times, want 0", allocs)
	}
}
