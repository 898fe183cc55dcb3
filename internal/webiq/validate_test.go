package webiq

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"webiq/internal/nlp"
	"webiq/internal/surfaceweb"
)

// refValidator is the reference PMI validation the Validator is tested
// against: the one-(V, x)-pair-at-a-time loop, asking the joint first
// and NumHits(V), NumHits(x) only for a non-zero joint, with each
// distinct query charged to the engine once. It has no
// failure path; fault-profile tests compare the candidates the
// production path scored against it.
type refValidator struct {
	engine SearchEngine
	cfg    Config
	memo   map[string]int
}

func newRefValidator(engine SearchEngine, cfg Config) *refValidator {
	return &refValidator{engine: engine, cfg: cfg, memo: map[string]int{}}
}

func (r *refValidator) numHits(query string) int {
	n, ok := r.memo[query]
	if !ok {
		n = r.engine.NumHits(query)
		r.memo[query] = n
	}
	return n
}

// keys lists the hit-count queries scoring x on phrase asks, in probe
// order: the joint, then NumHits(V) and NumHits(x) when the joint is
// non-zero (and PMI, not raw counts, is scored).
func (r *refValidator) keys(phrase, x string) []string {
	lx := string(nlp.AppendLower(nil, x))
	joint := `"` + phrase + " " + lx + `"`
	if r.cfg.UseRawHitCounts || r.numHits(joint) == 0 {
		return []string{joint}
	}
	return []string{joint, `"` + phrase + `"`, `"` + lx + `"`}
}

// pmi is PMI(V, x) = NumHits(V + x) / (NumHits(V) · NumHits(x)), or the
// raw joint count under Config.UseRawHitCounts.
func (r *refValidator) pmi(phrase, x string) float64 {
	k := r.keys(phrase, x)
	joint := r.numHits(k[0])
	if len(k) == 1 {
		if r.cfg.UseRawHitCounts {
			return float64(joint)
		}
		return 0
	}
	hv, hx := r.numHits(k[1]), r.numHits(k[2])
	if hv == 0 || hx == 0 {
		return 0
	}
	return float64(joint) / (float64(hv) * float64(hx))
}

func (r *refValidator) scores(phrases []string, x string) []float64 {
	out := make([]float64, len(phrases))
	for i, p := range phrases {
		out[i] = r.pmi(p, x)
	}
	return out
}

func (r *refValidator) confidence(phrases []string, x string) float64 {
	if len(phrases) == 0 {
		return 0
	}
	return mean(r.scores(phrases, x))
}

// pmi scores one (phrase, x) pair through the production path.
func pmi(t *testing.T, v *Validator, phrase, x string) float64 {
	t.Helper()
	scores, errs := v.ScoresCtx(context.Background(), []string{phrase}, []string{x}, 1, nil)
	if errs[0] != nil {
		t.Fatalf("PMI(%q, %q): %v", phrase, x, errs[0])
	}
	return scores[0][0]
}

// confidence is the production confidence of a single candidate.
func confidence(t *testing.T, v *Validator, phrases []string, x string) float64 {
	t.Helper()
	confs, errs := v.ConfidenceCtx(context.Background(), phrases, []string{x})
	if errs[0] != nil {
		t.Fatalf("confidence(%q): %v", x, errs[0])
	}
	return confs[0]
}

// stubEngine is a SearchEngine with scripted hit counts, counting the
// queries actually issued.
type stubEngine struct {
	mu      sync.Mutex
	hits    map[string]int
	queries int
}

func (s *stubEngine) Search(string, int) []surfaceweb.Snippet { return nil }

func (s *stubEngine) NumHits(q string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	return s.hits[q]
}

func TestValidatorPhrases(t *testing.T) {
	v := NewValidator(&stubEngine{}, DefaultConfig())
	got := v.Phrases("Make")
	want := map[string]bool{"make": true, "makes such as": true, "such makes as": true}
	if len(got) != 3 {
		t.Fatalf("phrases = %v", got)
	}
	for _, p := range got {
		if !want[p] {
			t.Errorf("unexpected phrase %q", p)
		}
	}
}

func TestValidatorPhrasesBarePreposition(t *testing.T) {
	v := NewValidator(&stubEngine{}, DefaultConfig())
	got := v.Phrases("From")
	// Only the proximity phrase survives; no cue phrases without an NP.
	if len(got) != 1 || got[0] != "from" {
		t.Errorf("phrases = %v", got)
	}
}

func TestPMI(t *testing.T) {
	eng := &stubEngine{hits: map[string]int{
		`"make honda"`: 10,
		`"make"`:       100,
		`"honda"`:      50,
	}}
	v := NewValidator(eng, DefaultConfig())
	got := pmi(t, v, "make", "Honda")
	want := 10.0 / (100 * 50)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PMI = %v, want %v", got, want)
	}
}

func TestPMIZeroJoint(t *testing.T) {
	eng := &stubEngine{hits: map[string]int{`"make"`: 100, `"january"`: 80}}
	v := NewValidator(eng, DefaultConfig())
	if got := pmi(t, v, "make", "January"); got != 0 {
		t.Errorf("PMI = %v, want 0", got)
	}
	// Zero joint must short-circuit: no V/x queries issued.
	if eng.queries != 1 {
		t.Errorf("queries = %d, want 1 (joint only)", eng.queries)
	}
}

func TestPMICorrectsPopularityBias(t *testing.T) {
	// "January" co-occurs with "departure date" often because January is
	// everywhere; PMI must rank the rarer true instance higher when its
	// dependence is stronger.
	eng := &stubEngine{hits: map[string]int{
		`"month aug"`:     8,
		`"month"`:         100,
		`"aug"`:           20,
		`"month january"`: 12,
		`"january"`:       1000,
	}}
	cfg := DefaultConfig()
	v := NewValidator(eng, cfg)
	rare := pmi(t, v, "month", "Aug")
	popular := pmi(t, v, "month", "January")
	if rare <= popular {
		t.Errorf("PMI: rare=%v popular=%v; PMI should discount popularity", rare, popular)
	}

	// With raw hit counts (the ablation), the popular value wins —
	// demonstrating the bias PMI corrects.
	cfg.UseRawHitCounts = true
	vr := NewValidator(eng, cfg)
	if pmi(t, vr, "month", "Aug") >= pmi(t, vr, "month", "January") {
		t.Error("raw hit counts should prefer the popular value")
	}
}

func TestValidatorCaching(t *testing.T) {
	eng := &stubEngine{hits: map[string]int{
		`"make honda"`:  10,
		`"make toyota"`: 8,
		`"make"`:        100,
		`"honda"`:       50,
		`"toyota"`:      40,
	}}
	v := NewValidator(eng, DefaultConfig())
	pmi(t, v, "make", "Honda")
	pmi(t, v, "make", "Toyota")
	pmi(t, v, "make", "Honda") // fully cached
	// Unique queries: make honda, make, honda, make toyota, toyota = 5.
	if eng.queries != 5 {
		t.Errorf("engine queries = %d, want 5 (caching)", eng.queries)
	}
}

func TestConfidenceAveragesPhrases(t *testing.T) {
	eng := &stubEngine{hits: map[string]int{
		`"make honda"`:          10,
		`"makes such as honda"`: 5,
		`"make"`:                100,
		`"makes such as"`:       50,
		`"honda"`:               50,
	}}
	v := NewValidator(eng, DefaultConfig())
	phrases := []string{"make", "makes such as"}
	got := confidence(t, v, phrases, "Honda")
	want := (10.0/(100*50) + 5.0/(50*50)) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("confidence = %v, want %v", got, want)
	}
}

func TestConfidenceNoPhrases(t *testing.T) {
	v := NewValidator(&stubEngine{}, DefaultConfig())
	if got := confidence(t, v, nil, "x"); got != 0 {
		t.Errorf("confidence = %v, want 0", got)
	}
}

func TestScoresVector(t *testing.T) {
	eng := &stubEngine{hits: map[string]int{
		`"a x"`: 2, `"a"`: 10, `"x"`: 5,
	}}
	v := NewValidator(eng, DefaultConfig())
	scores, errs := v.ScoresCtx(context.Background(), []string{"a", "b"}, []string{"x"}, 1, nil)
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	got := scores[0]
	if len(got) != 2 {
		t.Fatalf("scores = %v", got)
	}
	if got[0] <= 0 || got[1] != 0 {
		t.Errorf("scores = %v", got)
	}
}

// hitsResult is one hit-count answer: a count or an error.
type hitsResult struct {
	n   int
	err error
}

// gateEngine is a FallibleEngine whose hit-count queries block until
// the test releases them. entered receives each query as it arrives;
// answers[i] is the (count, error) of the i-th query.
type gateEngine struct {
	entered chan string
	release chan struct{}
	mu      sync.Mutex
	answers []hitsResult
	queries int
}

func newGateEngine(answers ...hitsResult) *gateEngine {
	return &gateEngine{entered: make(chan string, 8), release: make(chan struct{}), answers: answers}
}

func (g *gateEngine) Search(context.Context, string, int) ([]surfaceweb.Snippet, error) {
	return nil, nil
}

func (g *gateEngine) NumHits(_ context.Context, q string) (int, error) {
	g.mu.Lock()
	a := g.answers[g.queries]
	g.queries++
	g.mu.Unlock()
	g.entered <- q
	<-g.release
	return a.n, a.err
}

func (g *gateEngine) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queries
}

// waitingCtx reports on waiting when a memo waiter selects on its Done
// channel, so a test knows the waiter is parked on the owner's call.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitingCtx(ctx context.Context) *waitingCtx {
	return &waitingCtx{Context: ctx, waiting: make(chan struct{})}
}

func (w *waitingCtx) Done() <-chan struct{} {
	w.once.Do(func() { close(w.waiting) })
	return w.Context.Done()
}

// startOwnerAndWaiter starts an owner asking key, waits for its query
// to reach the engine, then starts a waiter on waiterCtx and waits for
// it to park on the owner's call. The owner's and the waiter's results
// arrive on the returned channels once the engine is released.
func startOwnerAndWaiter(t *testing.T, v *Validator, g *gateEngine, key string, waiterCtx *waitingCtx) (owner, waiter chan hitsResult) {
	t.Helper()
	owner, waiter = make(chan hitsResult, 1), make(chan hitsResult, 1)
	go func() {
		n, err := v.numHits(context.Background(), []byte(key))
		owner <- hitsResult{n, err}
	}()
	if q := <-g.entered; q != key {
		t.Fatalf("engine asked %q, want %q", q, key)
	}
	go func() {
		n, err := v.numHits(waiterCtx, []byte(key))
		waiter <- hitsResult{n, err}
	}()
	<-waiterCtx.waiting
	return owner, waiter
}

// TestValidatorSingleflightSharesOneQuery: two goroutines needing one
// key while the engine blocks cost one engine query, and both get the
// count.
func TestValidatorSingleflightSharesOneQuery(t *testing.T) {
	g := newGateEngine(hitsResult{n: 42})
	v := NewValidator(&stubEngine{}, DefaultConfig())
	v.SetFallible(g)
	owner, waiter := startOwnerAndWaiter(t, v, g, `"k"`, newWaitingCtx(context.Background()))
	close(g.release)
	for name, ch := range map[string]chan hitsResult{"owner": owner, "waiter": waiter} {
		if r := <-ch; r.n != 42 || r.err != nil {
			t.Errorf("%s got (%d, %v), want (42, nil)", name, r.n, r.err)
		}
	}
	if n := g.count(); n != 1 {
		t.Errorf("engine saw %d queries, want 1", n)
	}
}

// TestValidatorSingleflightSharesFailureUncached: the owner's failure
// reaches its waiter, and the failed key is not cached — the next need
// asks the engine again.
func TestValidatorSingleflightSharesFailureUncached(t *testing.T) {
	boom := errors.New("backend down")
	g := newGateEngine(hitsResult{err: boom}, hitsResult{n: 7})
	v := NewValidator(&stubEngine{}, DefaultConfig())
	v.SetFallible(g)
	owner, waiter := startOwnerAndWaiter(t, v, g, `"k"`, newWaitingCtx(context.Background()))
	close(g.release)
	for name, ch := range map[string]chan hitsResult{"owner": owner, "waiter": waiter} {
		if r := <-ch; !errors.Is(r.err, boom) {
			t.Errorf("%s got (%d, %v), want the owner's error", name, r.n, r.err)
		}
	}
	if n, err := v.numHits(context.Background(), []byte(`"k"`)); n != 7 || err != nil {
		t.Errorf("retry got (%d, %v), want (7, nil)", n, err)
	}
	if n := g.count(); n != 2 {
		t.Errorf("engine saw %d queries, want 2: a failed key must not be cached", n)
	}
}

// TestValidatorSingleflightWaiterCancel: a waiter whose context is
// canceled returns the context's error at once, while the owner's
// answer still lands in the memo.
func TestValidatorSingleflightWaiterCancel(t *testing.T) {
	g := newGateEngine(hitsResult{n: 9})
	v := NewValidator(&stubEngine{}, DefaultConfig())
	v.SetFallible(g)
	ctx, cancel := context.WithCancel(context.Background())
	owner, waiter := startOwnerAndWaiter(t, v, g, `"k"`, newWaitingCtx(ctx))
	cancel()
	if r := <-waiter; !errors.Is(r.err, context.Canceled) {
		t.Errorf("waiter got (%d, %v), want context.Canceled", r.n, r.err)
	}
	close(g.release)
	if r := <-owner; r.n != 9 || r.err != nil {
		t.Errorf("owner got (%d, %v), want (9, nil)", r.n, r.err)
	}
	if n, err := v.numHits(context.Background(), []byte(`"k"`)); n != 9 || err != nil || g.count() != 1 {
		t.Errorf("after the owner: (%d, %v) with %d engine queries, want (9, nil) from the memo", n, err, g.count())
	}
}
