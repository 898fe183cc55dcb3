package webiq

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
)

// Probe outcomes, one byte each: a success, a rejection, or a failure.
const (
	probeSuccess = 's'
	probeReject  = 'r'
	probeFailed  = 'f'
)

// tally counts the successes and the answered probes of outcomes.
func tally(outcomes []byte) (success, answered int) {
	for _, o := range outcomes {
		switch o {
		case probeSuccess:
			success++
			answered++
		case probeReject:
			answered++
		}
	}
	return success, answered
}

// oneThirdVerdict is the one-third rule over a whole sample: skip with
// nothing answered, else accept when at least a third of the answered
// probes succeeded.
func oneThirdVerdict(outcomes []byte) string {
	s, a := tally(outcomes)
	switch {
	case a == 0:
		return "skip"
	case 3*s >= a:
		return "accept"
	}
	return "reject"
}

// fixedByEnumeration reports whether every way the r probes after a
// prefix with s successes of a answered can turn out — j successes and
// k rejections, the rest failures — gives the same one-third verdict.
func fixedByEnumeration(s, a, r int) bool {
	first := ""
	for j := 0; j <= r; j++ {
		for k := 0; j+k <= r; k++ {
			v := "reject"
			switch {
			case a+j+k == 0:
				v = "skip"
			case 3*(s+j) >= a+j+k:
				v = "accept"
			}
			if first == "" {
				first = v
			} else if v != first {
				return false
			}
		}
	}
	return true
}

// minimalPrefix returns the length of the shortest prefix of outcomes
// after which the whole sample's verdict is fixed.
func minimalPrefix(outcomes []byte) int {
	for p := 0; p < len(outcomes); p++ {
		s, a := tally(outcomes[:p])
		if fixedByEnumeration(s, a, len(outcomes)-p) {
			return p
		}
	}
	return len(outcomes)
}

// scriptedSource answers each probe with the outcome its value's first
// byte names, and logs the values probed.
type scriptedSource struct{ probed []string }

func (s *scriptedSource) Probe(_ context.Context, _, _, value string) (string, error) {
	s.probed = append(s.probed, value)
	switch value[0] {
	case probeSuccess:
		return "<html><body><p>Found 3 results</p></body></html>", nil
	case probeReject:
		return "<html><body><p>Found 0 results</p></body></html>", nil
	}
	return "", resilience.ErrTransient
}

var (
	scriptPoolOnce sync.Once
	scriptPool     *deepweb.Pool
	scriptIfc      string
)

// scriptedAttrDeep returns an Attr-Deep component over one real source
// whose probes the script answers, recording into ledger.
func scriptedAttrDeep(cfg Config, ledger *obs.Ledger) (*AttrDeep, *scriptedSource, string) {
	scriptPoolOnce.Do(func() {
		dom := kb.DomainByKey("book")
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		scriptPool = deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
		scriptIfc = ds.Interfaces[0].ID
	})
	src := &scriptedSource{}
	ad := NewAttrDeep(scriptPool, cfg)
	ad.setFallible(src)
	ad.SetLedger(ledger)
	return ad, src, scriptIfc
}

// checkOneThirdStop runs Attr-Deep over a donor whose probes answer
// outcomes in order, and checks the early verdict, its ledger record
// and the probes issued against the full-sample oracle.
func checkOneThirdStop(t *testing.T, cfg Config, outcomes []byte) {
	t.Helper()
	ledger := obs.NewLedger(nil)
	ad, src, ifc := scriptedAttrDeep(cfg, ledger)
	values := make([]string, len(outcomes))
	for i, o := range outcomes {
		values[i] = fmt.Sprintf("%c%d", o, i)
	}
	_, ok := ad.ValidateBorrowedCtx(context.Background(), ifc, "attr", "Label", "Donor", values)
	sample := outcomes
	if cfg.MaxBorrowProbes > 0 && len(sample) > cfg.MaxBorrowProbes {
		sample = sample[:cfg.MaxBorrowProbes]
	}
	want, issued := oneThirdVerdict(sample), minimalPrefix(sample)
	if len(src.probed) != issued || !slices.Equal(src.probed, values[:issued]) {
		t.Fatalf("outcomes %s: probed %q, want the first %d values in order", outcomes, src.probed, issued)
	}
	if ok != (want == "accept") {
		t.Fatalf("outcomes %s: ok=%v, full-sample verdict %s", outcomes, ok, want)
	}
	d := ledger.Decisions()
	if len(d) == 0 || d[0].Verdict != want || d[0].Count != issued {
		t.Fatalf("outcomes %s: ledger %+v, want verdict %s over %d probes", outcomes, d, want, issued)
	}
}

// TestOneThirdStopExhaustive drives Attr-Deep through every sequence of
// success, rejection and failure outcomes of 1 to 8 probes, uncapped
// and under the default cap, at one and at eight workers. The verdict
// must equal the one-third rule over the whole (capped) sample, skip
// included, and the probes issued must be the shortest prefix after
// which no outcome of the rest can change it.
func TestOneThirdStopExhaustive(t *testing.T) {
	for _, width := range []int{1, 8} {
		for _, maxProbes := range []int{0, DefaultConfig().MaxBorrowProbes} {
			cfg := DefaultConfig()
			cfg.Parallelism, cfg.MaxBorrowProbes = width, maxProbes
			seq := make([]byte, 0, 8)
			var walk func()
			walk = func() {
				if len(seq) > 0 {
					checkOneThirdStop(t, cfg, seq)
				}
				if len(seq) == 8 {
					return
				}
				for _, o := range []byte{probeSuccess, probeReject, probeFailed} {
					seq = append(seq, o)
					walk()
					seq = seq[:len(seq)-1]
				}
			}
			walk()
		}
	}
}

// TestOneThirdFixedIsExact checks the closed-form stop rule against the
// enumeration for every count it can see in a sample of up to 40
// probes.
func TestOneThirdFixedIsExact(t *testing.T) {
	for a := 0; a <= 40; a++ {
		for s := 0; s <= a; s++ {
			for r := 0; a+r <= 40; r++ {
				want := fixedByEnumeration(s, a, r)
				if r == 0 {
					want = a > 0 // a finished sample is "fixed" only with an answer
				}
				if got := oneThirdFixed(s, a, r); got != want {
					t.Errorf("oneThirdFixed(s=%d, a=%d, r=%d) = %v, enumeration %v", s, a, r, got, want)
				}
			}
		}
	}
}

// FuzzOneThirdStop checks the early stop against the full-sample
// one-third rule over long, uncapped outcome sequences: each input byte
// picks one probe's outcome.
func FuzzOneThirdStop(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 2, 2, 0, 1, 1, 1, 1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{1, 1, 0}, 30))
	f.Add(bytes.Repeat([]byte{2}, 64))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 256 {
			return
		}
		outcomes := make([]byte, len(in))
		for i, b := range in {
			outcomes[i] = []byte{probeSuccess, probeReject, probeFailed}[b%3]
		}
		cfg := DefaultConfig()
		cfg.MaxBorrowProbes = 0
		checkOneThirdStop(t, cfg, outcomes)
	})
}

// randomClassifier draws a classifier over n phrases whose parameters
// come from a small set, so ties between a feature's two values, exact
// 0.5 posteriors and all-zero products (pPos+pNeg == 0) all occur.
func randomClassifier(rng *rand.Rand, n int) *Classifier {
	vals := []float64{0, 0.25, 0.5, 0.75, 1}
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64()
		}
		return vals[rng.Intn(len(vals))]
	}
	c := &Classifier{PPos: pick(), PNeg: pick(), Thresholds: make([]float64, n), PF: make([][2][2]float64, n)}
	for i := range n {
		c.Phrases = append(c.Phrases, fmt.Sprintf("p%d", i))
		c.Thresholds[i] = float64(rng.Intn(5))
		for cls := range 2 {
			c.PF[i][0][cls] = pick()
			c.PF[i][1][cls] = pick()
			if rng.Intn(4) == 0 {
				c.PF[i][1][cls] = c.PF[i][0][cls]
			}
		}
	}
	return c
}

// decidedByEnumeration reports whether ProbPositive > 0.5 is the same
// for every full score vector extending prefix: each unscored phrase
// scores just above or at its threshold.
func decidedByEnumeration(c *Classifier, prefix []float64) bool {
	n, k := len(c.Phrases), len(prefix)
	first := -1
	for m := 0; m < 1<<(n-k); m++ {
		full := append([]float64(nil), prefix...)
		for i := k; i < n; i++ {
			full = append(full, c.Thresholds[i]+float64(m>>(i-k)&1))
		}
		d := 0
		if c.ProbPositive(full) > 0.5 {
			d = 1
		}
		if first < 0 {
			first = d
		} else if d != first {
			return false
		}
	}
	return true
}

// TestClassifierBoundsMatchProbPositive is the property test of the
// Attr-Surface stop: over random classifiers and score vectors (scores
// on, above and below each threshold), a prefix counts as decided
// exactly when every completion gives ProbPositive the same side of
// 0.5, the early decision equals the full vector's ProbPositive > 0.5,
// and a full vector's bounds are its posterior, bit for bit.
func TestClassifierBoundsMatchProbPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(3)
		c := randomClassifier(rng, n)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = c.Thresholds[i] + float64(rng.Intn(3)-1)*rng.Float64()
		}
		p := c.ProbPositive(scores)
		if lo, hi := c.bounds(scores); lo != p || hi != p {
			t.Fatalf("classifier %+v scores %v: bounds [%v, %v] of a full vector, ProbPositive %v", c, scores, lo, hi, p)
		}
		for k := 0; k <= n; k++ {
			decided := c.decided(scores[:k])
			if want := decidedByEnumeration(c, scores[:k]); decided != want {
				t.Fatalf("classifier %+v prefix %v: decided %v, enumeration %v", c, scores[:k], decided, want)
			}
			if !decided {
				continue
			}
			if lo, _ := c.bounds(scores[:k]); (lo > 0.5) != (p > 0.5) {
				t.Fatalf("classifier %+v prefix %v: early accept %v, ProbPositive(%v) = %v", c, scores[:k], lo > 0.5, scores, p)
			}
		}
	}
}

// pinnedBorrowVerdicts holds, per domain of the seed-1 world (the 5
// paper domains and synth.Sweep(20, 1)), the SHA-256 of every
// Attr-Surface and Attr-Deep verdict and every attribute's acquired
// instances (borrowVerdicts), recorded with every phrase of every
// borrowed value scored and every probe of the capped sample issued.
// The early stops must leave all of them as they were.
var pinnedBorrowVerdicts = map[string]string{
	"airfare":                  "a352c4a2066c8841519e0a98633a27627bae90fed956221699881ee47251a409",
	"auto":                     "890f7e3b68593f239e6c822aa3873f0c2f9fb3744d1047c9a3a48d88e2c21b88",
	"book":                     "8195e667cbe2ec31555e2688c77d014e1b31b03cd6319cf1f8b4dc966c591283",
	"job":                      "a525194ded29fcd2e67176224529d0ecb58c97becf03dc2814ff83c37ee6c4d6",
	"realestate":               "ef6dd26f40f62a52dc4a787c12db941180b2a298b34d293a4076d366da4514d2",
	"synth00-camera":           "fd71a57f00d86651faa040ea9df2b46ee92131ab9b861d247de3182223b73ef8",
	"synth01-laptop":           "d67ce4be6ca06bebb4dd18061c40a1648801ccd0bdc6a52c4adc5c8d17cf4b50",
	"synth02-boat":             "4505f13c43e065802a8170121a0bb663bb1c9699cfa7a54039465acf3069242a",
	"synth03-bicycle":          "5a7278fab49a55e078470812f421a93d5b5c72df75d627d8363b07011cc4d09f",
	"synth04-watch":            "e58310bce4a13a657625b6b72423f05929141843e2bd954758ff5c482cb0ded7",
	"synth05-guitar":           "a7f07ce70bfcba8ab79ebbbaa4e33e404be0c444462693504eb6747572fd6a81",
	"synth06-drone":            "a11d58fa557c1d468d376c8bd9e416203c665bd0b1de422810ca8cb85e0ee147",
	"synth07-tablet":           "d20291637b4d8e17bb8178201643953440c427952e3da8fd99bf658347f5ba3f",
	"synth08-printer":          "ebcdef3f5b970a61961f2d5d94268d53168a7882a0897f78327ace0dff47abe4",
	"synth09-telescope":        "b962691ce8b3a46572dd4c71ed6b04d028876b37ea8cb62cebf79bb642ec8c2c",
	"synth10-motorcycle":       "ee3a7cd48af5db0e8ea62149b571059f49e805b20b19a1fedce7180607075494",
	"synth11-keyboard":         "79112460a5a28abf39e47aa75d87a8aa6ad92f8d38ea962631cc79a3db70a480",
	"synth12-monitor":          "28ae050924fe40c3b44a7b5d092622e60cdba435d43b2a1bd8e8ce101537800c",
	"synth13-speaker":          "be86b6ae2b0fcf6d82b2d5199f1cb856ad5e8e5fab33d8efb570316265391509",
	"synth14-scooter":          "73a8418658a186f54c239b1696bc6779c0abd91fb2b36b1bddb3714ca1a7cd3d",
	"synth15-projector":        "164985e78e1dfa4d982250e815ca5bc30b60aa04f00706fd7a96c391b8a9401d",
	"synth16-microphone":       "51a5af2a890c3e144f3972085232ffa3851b6dd8686149941221e22423867435",
	"synth17-treadmill":        "a904ef0c0cf94fa45adce48f6d7243f3f9f26ee64fd0f901c71a79ea63ef9766",
	"synth18-espresso-machine": "7a38b18c5b23391aafdf0564de022cfdc274eff1f50e739f3d625f64682d5968",
	"synth19-lawn-mower":       "8b3eab393eb15135fcde4f85972348bc46d212a479d37953ec67be37a633da1b",
}

// borrowVerdicts runs the full pipeline over one domain of w and
// returns its verdict lines: each Attr-Surface and Attr-Deep ledger
// decision's component, verdict, attribute, label and value, then each
// attribute's acquired instances.
func borrowVerdicts(t *testing.T, w synth.World, eng *surfaceweb.Engine, dom *kb.Domain) []byte {
	t.Helper()
	ds := w.Dataset(dom)
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	acq := NewPipeline(surfaceweb.NewCachedEngine(eng, 0), w.Pool(ds), cfg, AllComponents())
	ledger := obs.NewLedger(nil)
	acq.SetLedger(ledger)
	acq.AcquireAllCtx(context.Background(), ds)
	var b bytes.Buffer
	for _, d := range ledger.Decisions() {
		if d.Component == "attr-surface" || d.Component == "attr-deep" {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\n", d.Component, d.Verdict, d.AttrID, d.Label, d.Value)
		}
	}
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			j, err := json.Marshal(a.Acquired)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s\t%s\n", a.ID, j)
		}
	}
	return b.Bytes()
}

// TestEarlyStopKeepsBorrowVerdicts runs acquisition over the 25 domains
// of the seed-1 world and demands the pinned full-scoring verdicts and
// accepted sets: deciding with fewer probes and hit counts must not
// change what is decided.
func TestEarlyStopKeepsBorrowVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("25 full acquisitions; skipped in -short")
	}
	w := synth.World{Seed: 1, Domains: kb.Domains(), Scenarios: synth.Sweep(20, 1)}
	eng := w.Corpus()
	doms := append([]*kb.Domain(nil), w.Domains...)
	for _, sc := range w.Scenarios {
		doms = append(doms, sc.Domain)
	}
	var got []string
	for _, dom := range doms {
		d := sha(borrowVerdicts(t, w, eng, dom))
		got = append(got, fmt.Sprintf("%q: %q,", dom.Key, d))
		if want := pinnedBorrowVerdicts[dom.Key]; d != want {
			t.Errorf("%s: borrow verdicts digest %q, pinned %q", dom.Key, d, want)
		}
	}
	if t.Failed() {
		sort.Strings(got)
		t.Logf("digests now:\n%s", strings.Join(got, "\n"))
	}
}
