package webiq

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/kb"
	"webiq/internal/schema"
	"webiq/internal/sim"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
)

// The per-call donor similarity the donor index replaced, kept verbatim
// as the oracle: every call folds both lists into pooled scratch,
// insertion-sorts them for the exact-match merge, and scans all pairs
// for near-duplicates.

type referenceDonorScratch struct {
	fa, fb sim.FoldedList
	wa, wb asciiFoldList
	ia, ib []int
}

var referenceDonorPool = sync.Pool{New: func() any { return new(referenceDonorScratch) }}

func referenceDomainsVerySimilar(a, b []string, minMatches int) bool {
	sc := referenceDonorPool.Get().(*referenceDonorScratch)
	defer referenceDonorPool.Put(sc)
	sc.fa.Reset(a)
	sc.fb.Reset(b)
	matches := sc.sharedFolded()
	if matches >= minMatches {
		return true
	}
	sc.wa.reset(a)
	sc.wb.reset(b)
	for i := range a {
		if matches >= minMatches {
			return true
		}
		for j := range b {
			if sim.EditSimAtLeastFolded(sc.fa.At(i), sc.fa.Runes(i), sc.fb.At(j), sc.fb.Runes(j), 0.9) &&
				!bytes.Equal(sc.wa.at(i), sc.wb.at(j)) {
				matches++
				break
			}
		}
	}
	return matches >= minMatches
}

func referenceSortFoldedIdx(fl *sim.FoldedList, idx []int) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && bytes.Compare(fl.At(idx[j]), fl.At(idx[j-1])) < 0; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

func (sc *referenceDonorScratch) sharedFolded() int {
	ia, ib := sc.ia[:0], sc.ib[:0]
	for i := 0; i < sc.fa.Len(); i++ {
		ia = append(ia, i)
	}
	for j := 0; j < sc.fb.Len(); j++ {
		ib = append(ib, j)
	}
	referenceSortFoldedIdx(&sc.fa, ia)
	referenceSortFoldedIdx(&sc.fb, ib)
	sc.ia, sc.ib = ia, ib
	n := 0
	for i, j := 0, 0; i < len(ia) && j < len(ib); {
		va, vb := sc.fa.At(ia[i]), sc.fb.At(ib[j])
		switch c := bytes.Compare(va, vb); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			n++
			for i++; i < len(ia) && bytes.Equal(sc.fa.At(ia[i]), va); i++ {
			}
			for j++; j < len(ib) && bytes.Equal(sc.fb.At(ib[j]), va); j++ {
			}
		}
	}
	return n
}

// The donor selection of Section 5 as it read before the index: label
// similarity, sibling overlap and value similarity recomputed per call
// from the attributes' current values.

func referenceBorrowDonorsFreeText(cfg Config, ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute) []*schema.Attribute {
	type scored struct {
		attr *schema.Attribute
		sim  float64
	}
	var donors []scored
	for _, other := range ds.Interfaces {
		if other.ID == ifc.ID {
			continue
		}
		for _, cand := range other.Attributes {
			if len(cand.AllInstances()) == 0 {
				continue
			}
			ls := sim.LabelSim(attr.Label, cand.Label)
			if ls < cfg.BorrowLabelSim {
				continue
			}
			if referenceDomainMatchesSibling(ifc, attr, cand) {
				continue
			}
			donors = append(donors, scored{cand, ls})
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if donors[i].sim != donors[j].sim {
			return donors[i].sim > donors[j].sim
		}
		return donors[i].attr.ID < donors[j].attr.ID
	})
	out := make([]*schema.Attribute, len(donors))
	for i, d := range donors {
		out[i] = d.attr
	}
	return out
}

func referenceDomainMatchesSibling(ifc *schema.Interface, attr *schema.Attribute, cand *schema.Attribute) bool {
	for _, y := range ifc.Attributes {
		if y.ID == attr.ID || !y.HasInstances() {
			continue
		}
		if sim.ValueOverlap(cand.AllInstances(), y.Instances) >= 0.3 {
			return true
		}
	}
	return false
}

func referenceBorrowValuesPredef(cfg Config, ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute) []string {
	out := referenceCollectBorrowValues(cfg, ds, ifc, attr, true)
	if len(out) == 0 {
		out = referenceCollectBorrowValues(cfg, ds, ifc, attr, false)
	}
	if len(out) > cfg.MaxAcquired {
		out = out[:cfg.MaxAcquired]
	}
	return out
}

func referenceCollectBorrowValues(cfg Config, ds *schema.Dataset, ifc *schema.Interface, attr *schema.Attribute, requireSimilar bool) []string {
	have := map[string]bool{}
	for _, v := range attr.Instances {
		have[foldValue(v)] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, other := range ds.Interfaces {
		if other.ID == ifc.ID {
			continue
		}
		for _, cand := range other.Attributes {
			vals := cand.AllInstances()
			if len(vals) == 0 {
				continue
			}
			if requireSimilar && !referenceDomainsVerySimilar(attr.Instances, vals, cfg.BorrowValueMatches) {
				continue
			}
			for _, v := range vals {
				f := foldValue(v)
				if have[f] || seen[f] {
					continue
				}
				seen[f] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// indexedVerySimilar runs the production test over two plain lists.
func indexedVerySimilar(a, b []string, minMatches int) bool {
	x1 := &schema.Attribute{ID: "x/a", Instances: a}
	cand := &schema.Attribute{ID: "y/b", Instances: b}
	return newDonorIndex().verySimilar(x1, cand, minMatches)
}

// donorValueGen draws value lists shaped like the ones donor selection
// compares: words around the 10-, 20- and 30-byte steps where the
// allowed edit distance changes, in case and whitespace variants and
// with 1–3-edit typos, optionally with non-ASCII letters.
type donorValueGen struct {
	rng   *rand.Rand
	ascii bool
	words []string
}

var donorTestLengths = []int{1, 2, 3, 5, 8, 9, 10, 11, 12, 18, 19, 20, 21, 22, 28, 29, 30, 31, 32}

func newDonorValueGen(rng *rand.Rand, ascii bool) *donorValueGen {
	g := &donorValueGen{rng: rng, ascii: ascii}
	for i := 0; i < 8; i++ {
		g.words = append(g.words, g.word(donorTestLengths[rng.Intn(len(donorTestLengths))]))
	}
	return g
}

func (g *donorValueGen) letter() string {
	const asciiLetters = "abcdefghijklmnopqrstuvwxyzABCDEFG  -'"
	if !g.ascii && g.rng.Intn(6) == 0 {
		// Accented letters, a capital that lowers to ASCII (the Kelvin
		// sign), and an invalid byte that folds to U+FFFD.
		nonASCII := []string{"é", "Ü", "ß", "K", "İ", "ø", "\xff"}
		return nonASCII[g.rng.Intn(len(nonASCII))]
	}
	return string(asciiLetters[g.rng.Intn(len(asciiLetters))])
}

func (g *donorValueGen) word(n int) string {
	var sb strings.Builder
	for sb.Len() < n {
		sb.WriteString(g.letter())
	}
	return sb.String()
}

// variant returns a case, whitespace or typo variant of w.
func (g *donorValueGen) variant(w string) string {
	switch g.rng.Intn(6) {
	case 0:
		return w
	case 1:
		return strings.ToUpper(w)
	case 2:
		return []string{" ", "\t", "  "}[g.rng.Intn(3)] + w + []string{"", " ", "\n"}[g.rng.Intn(3)]
	default:
		b := []byte(w)
		for e := 1 + g.rng.Intn(3); e > 0; e-- {
			pos := 0
			if len(b) > 0 {
				pos = g.rng.Intn(len(b))
			}
			switch g.rng.Intn(3) {
			case 0: // insert
				b = append(b[:pos], append([]byte(g.letter()), b[pos:]...)...)
			case 1: // delete
				if len(b) > 0 {
					b = append(b[:pos], b[pos+1:]...)
				}
			default: // substitute
				if len(b) > 0 {
					b = append(b[:pos], append([]byte(g.letter()), b[pos+1:]...)...)
				}
			}
		}
		return string(b)
	}
}

func (g *donorValueGen) list() []string {
	out := make([]string, 1+g.rng.Intn(10))
	for i := range out {
		if g.rng.Intn(5) == 0 {
			out[i] = g.word(donorTestLengths[g.rng.Intn(len(donorTestLengths))])
		} else {
			out[i] = g.variant(g.words[g.rng.Intn(len(g.words))])
		}
	}
	return out
}

// TestDonorIndexMatchesReference compares the indexed value test with
// the per-call oracle on seeded random lists, for minMatches 1–4, and
// again after the candidate acquires more values on the same index.
func TestDonorIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var decided, nearDecided, windowed int
	for trial := 0; trial < 4000; trial++ {
		g := newDonorValueGen(rng, trial%2 == 0)
		x1 := &schema.Attribute{ID: "x/a", Instances: g.list()}
		cand := &schema.Attribute{ID: "y/b", Instances: g.list()}
		ix := newDonorIndex()
		// Round 0 reads the predefined view, round 1 builds the
		// acquired view, round 2 must rebuild it.
		for round := 0; round < 3; round++ {
			all := cand.AllInstances()
			exact := sim.SharedValues(x1.Instances, all)
			if ix.predefined(x1).allASCII && ix.values(cand).allASCII {
				windowed++
			}
			for min := 1; min <= 4; min++ {
				got := ix.verySimilar(x1, cand, min)
				want := referenceDomainsVerySimilar(x1.Instances, all, min)
				if got != want {
					t.Fatalf("trial %d round %d min %d: indexed %v, reference %v\nX1 %q\ncand %q",
						trial, round, min, got, want, x1.Instances, all)
				}
				if want {
					decided++
					if exact < min {
						nearDecided++
					}
				}
			}
			addAcquired(cand, g.list(), 1<<20)
		}
	}
	// The generator must exercise both paths and both outcomes.
	if nearDecided == 0 || decided == 0 || decided == 4000*3*4 || windowed == 0 {
		t.Errorf("weak generator: %d true outcomes, %d decided by near-duplicates, %d windowed comparisons",
			decided, nearDecided, windowed)
	}
}

// TestDonorIndexSeesMidRunAcquisitions pins the invalidation rule: a
// donor that acquires values between two queries on one index must be
// judged on its new values, not on a stale entry.
func TestDonorIndexSeesMidRunAcquisitions(t *testing.T) {
	ix := newDonorIndex()
	x1 := &schema.Attribute{ID: "x/make", Label: "Make", Instances: []string{"Honda", "Toyota", "Mitsubishi"}}
	donor := &schema.Attribute{ID: "y/brand", Label: "Brand", Instances: []string{"Honda"}}
	if ix.verySimilar(x1, donor, 2) {
		t.Fatal("one shared value passed minMatches 2")
	}
	addAcquired(donor, []string{"Mitsubishis"}, 20)
	if !ix.verySimilar(x1, donor, 2) {
		t.Error("near-duplicate acquired between queries was not seen (stale entry)")
	}
	addAcquired(donor, []string{"toyota"}, 20)
	if !ix.verySimilar(x1, donor, 3) {
		t.Error("exact match acquired between queries was not seen (stale entry)")
	}

	// The sibling-overlap exclusion reads the donor's fold set, which
	// must be rebuilt with it.
	ds := twoInterfaceDataset()
	ifc := ds.Interfaces[0]
	ifc.Attributes = append(ifc.Attributes, mkAttr("x", "near", "Nearby city", "Boston", "Chicago", "Denver"))
	target := ifc.Attributes[0] // "From"
	cand := ds.Interfaces[1].Attributes[0]
	cand.Instances = []string{"Paris"}
	a := testAcquirer(DefaultConfig())
	for _, acq := range [][]string{nil, {"Lyon"}} {
		addAcquired(cand, acq, 20)
		if got := a.borrowDonorsFreeText(ix, ds, ifc, target); len(got) != 1 {
			t.Fatalf("donors with %q acquired = %v, want From city", cand.Acquired, got)
		}
	}
	addAcquired(cand, []string{"Boston", "Chicago"}, 20)
	if got := a.borrowDonorsFreeText(ix, ds, ifc, target); len(got) != 0 {
		t.Errorf("donor whose acquisitions overlap a sibling not excluded (stale fold set): %v", got)
	}

	// Step 2's strict pass turns on once the donor shares enough values.
	ds = twoInterfaceDataset()
	class, cabin := ds.Interfaces[0].Attributes[1], ds.Interfaces[1].Attributes[1]
	ix = newDonorIndex()
	if ix.verySimilar(class, cabin, 2) {
		t.Fatal("Cabin shares one value with Class, passed minMatches 2")
	}
	addAcquired(cabin, []string{"business"}, 20)
	got := a.borrowValuesPredef(ix, ds, ds.Interfaces[0], class)
	if want := []string{"First Class"}; !reflect.DeepEqual(got, want) {
		t.Errorf("borrowed after acquisition = %v, want %v (strict donors only)", got, want)
	}
}

// TestEditLengthWindowMatchesLengthCut pins the near-duplicate window
// to the length cut of the edit comparison: m lies in the window of l
// exactly when |l−m| fits the edit budget of the longer value, or when
// m = l (two empty values are identical, which the comparison accepts
// before any cut).
func TestEditLengthWindowMatchesLengthCut(t *testing.T) {
	for _, th := range []float64{0.8, 0.85, 0.9, 0.95} {
		for l := 0; l <= 512; l++ {
			lo, hi := editLengthWindow(l, th)
			for m := 0; m <= 2*l+8; m++ {
				d := l - m
				if d < 0 {
					d = -d
				}
				want := m == l || d <= sim.EditBudget(max(l, m), th)
				if got := lo <= m && m <= hi; got != want {
					t.Fatalf("t=%v l=%d m=%d: in window [%d,%d] = %v, length cut admits = %v", th, l, m, lo, hi, got, want)
				}
			}
		}
	}
}

// donorSelectionInput is one dataset in the state Surface discovery
// leaves it in, ready for donor selection.
type donorSelectionInput struct {
	name string
	ds   *schema.Dataset
}

var (
	donorInputsOnce sync.Once
	donorInputs     []donorSelectionInput
)

// surfacedDatasets returns one paper domain and one noisy synthetic
// domain after Surface discovery, generated once per test binary.
// Callers must not mutate them.
func surfacedDatasets(tb testing.TB) []donorSelectionInput {
	tb.Helper()
	donorInputsOnce.Do(func() {
		surfaced := func(eng *surfaceweb.Engine, ds *schema.Dataset) *schema.Dataset {
			cfg := DefaultConfig()
			v := NewValidator(eng, cfg)
			acq := NewAcquirer(NewSurface(eng, v, cfg), nil, nil, Components{Surface: true}, cfg)
			acq.AcquireAll(ds)
			return ds
		}
		paper := surfaceweb.NewEngine()
		surfaceweb.BuildCorpus(paper, kb.Domains(), surfaceweb.DefaultCorpusConfig())
		donorInputs = append(donorInputs, donorSelectionInput{"airfare",
			surfaced(paper, dataset.Generate(kb.DomainByKey("airfare"), dataset.DefaultConfig()))})

		// Scenario 2 of the sweep: doubled corpus noise and
		// prepositional labels, so Surface extraction mostly fails and
		// the borrowing components carry the acquisition.
		sc := synth.Sweep(3, 1)[2]
		eng := surfaceweb.NewEngine()
		surfaceweb.BuildCorpus(eng, []*kb.Domain{sc.Domain}, sc.CorpusConfig(1))
		donorInputs = append(donorInputs, donorSelectionInput{sc.Domain.Key,
			surfaced(eng, dataset.Generate(sc.Domain, sc.DatasetConfig(1)))})
	})
	return donorInputs
}

// cloneDataset copies the interfaces and attributes of ds, so a test
// can grow Acquired lists without touching the shared input.
func cloneDataset(ds *schema.Dataset) *schema.Dataset {
	out := *ds
	out.Interfaces = make([]*schema.Interface, len(ds.Interfaces))
	for i, ifc := range ds.Interfaces {
		c := *ifc
		c.Attributes = make([]*schema.Attribute, len(ifc.Attributes))
		for j, a := range ifc.Attributes {
			ac := *a
			ac.Acquired = append([]string(nil), a.Acquired...)
			c.Attributes[j] = &ac
		}
		out.Interfaces[i] = &c
	}
	return &out
}

// TestDonorSelectionMatchesReference walks real post-Surface datasets
// the way a run does — one index, attributes in order, each attribute
// acquiring before the next is selected for — and requires both Step
// 1.b donors and Step 2 borrowed values to equal the per-call oracle's.
func TestDonorSelectionMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two corpora")
	}
	cfg := DefaultConfig()
	a := testAcquirer(cfg)
	for _, in := range surfacedDatasets(t) {
		ds := cloneDataset(in.ds)
		ix := newDonorIndex()
		var donors, borrowed int
		for _, ifc := range ds.Interfaces {
			for _, attr := range ifc.Attributes {
				var grow []string
				if !attr.HasInstances() {
					got := a.borrowDonorsFreeText(ix, ds, ifc, attr)
					want := referenceBorrowDonorsFreeText(cfg, ds, ifc, attr)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: donors %v, reference %v", in.name, attr.ID, got, want)
					}
					donors += len(got)
					if len(got) > 0 {
						grow = got[0].AllInstances()
					}
				} else {
					got := a.borrowValuesPredef(ix, ds, ifc, attr)
					want := referenceBorrowValuesPredef(cfg, ds, ifc, attr)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: borrowed %q, reference %q", in.name, attr.ID, got, want)
					}
					borrowed += len(got)
					grow = got
				}
				// Acquire like a run would, so later attributes see
				// this one's new values.
				addAcquired(attr, grow, cfg.MaxAcquired)
			}
		}
		if donors == 0 || borrowed == 0 {
			t.Errorf("%s: %d donors, %d borrowed values — the walk exercised nothing", in.name, donors, borrowed)
		}
	}
}

// BenchmarkDonorSelection measures the serial borrow-donor selection of
// one acquisition run — Step 1.b donors for every instance-less
// attribute and Step 2 borrowed values for every predefined one — over
// a paper domain and a noisy synthetic domain as Surface discovery
// leaves them. Each iteration builds a fresh donor index, as a run
// does.
func BenchmarkDonorSelection(b *testing.B) {
	cfg := DefaultConfig()
	a := testAcquirer(cfg)
	for _, in := range surfacedDatasets(b) {
		b.Run(in.name, func(b *testing.B) {
			ds := in.ds
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix := newDonorIndex()
				for _, ifc := range ds.Interfaces {
					for _, attr := range ifc.Attributes {
						if attr.HasInstances() {
							a.borrowValuesPredef(ix, ds, ifc, attr)
						} else {
							a.borrowDonorsFreeText(ix, ds, ifc, attr)
						}
					}
				}
			}
		})
	}
}
