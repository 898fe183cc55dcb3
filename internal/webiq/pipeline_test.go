package webiq

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/surfaceweb"
)

// TestNewPipelineMatchesHandWiring pins NewPipeline against the wiring
// it replaced: a shared Validator, the three components, NewAcquirer,
// and SetAccounting reading the raw engine's and the pool's clocks. For
// every paper domain, sequential and with 4 workers, the Report JSON
// and the ledger NDJSON must be byte-identical; with workers the ledger
// is recorded in goroutine order, so there its lines are compared as a
// multiset with the order stamp (Seq) cleared. Each run queries
// through a fresh CachedEngine, whose clock reads the engine it wraps,
// so the oracle's raw-engine accounting must come out the same.
func TestNewPipelineMatchesHandWiring(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	eng := surfaceweb.NewEngine()
	surfaceweb.BuildCorpus(eng, kb.Domains(), surfaceweb.DefaultCorpusConfig())

	run := func(dom *kb.Domain, cfg Config, wire func(*surfaceweb.CachedEngine, *deepweb.Pool) *Acquirer) (string, string) {
		ds := dataset.Generate(dom, dataset.DefaultConfig())
		pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
		acq := wire(surfaceweb.NewCachedEngine(eng, surfaceweb.DefaultCacheShards), pool)
		var ledger bytes.Buffer
		acq.SetLedger(obs.NewLedger(&ledger))
		rep, err := json.Marshal(acq.AcquireAllCtx(context.Background(), ds))
		if err != nil {
			t.Fatal(err)
		}
		return string(rep), ledger.String()
	}

	for _, dom := range kb.Domains() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/parallel-%d", dom.Key, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Parallelism = workers
				gotRep, gotLedger := run(dom, cfg, func(se *surfaceweb.CachedEngine, pool *deepweb.Pool) *Acquirer {
					return NewPipeline(se, pool, cfg, AllComponents())
				})
				wantRep, wantLedger := run(dom, cfg, func(se *surfaceweb.CachedEngine, pool *deepweb.Pool) *Acquirer {
					v := NewValidator(se, cfg)
					acq := NewAcquirer(NewSurface(se, v, cfg), NewAttrDeep(pool, cfg), NewAttrSurface(v, cfg), AllComponents(), cfg)
					acq.SetAccounting(
						func() (time.Duration, int) { return eng.VirtualTime(), eng.QueryCount() },
						func() (time.Duration, int) { return pool.VirtualTime(), pool.QueryCount() },
					)
					return acq
				})
				if gotRep != wantRep {
					t.Errorf("Report JSON differs:\nNewPipeline: %s\nhand-wired:  %s", gotRep, wantRep)
				}
				if workers > 1 {
					gotLedger, wantLedger = unorderedLedger(t, gotLedger), unorderedLedger(t, wantLedger)
				}
				if gotLedger != wantLedger {
					t.Error("ledger NDJSON differs between NewPipeline and the hand wiring")
				}
				if gotLedger == "" {
					t.Error("empty ledger")
				}
			})
		}
	}
}

// unorderedLedger canonicalizes ledger NDJSON recorded by concurrent
// workers: Seq cleared on every decision, lines sorted.
func unorderedLedger(t *testing.T, ndjson string) string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(ndjson, "\n"), "\n")
	for i, line := range lines {
		var d obs.Decision
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("ledger line %d: %v", i+1, err)
		}
		d.Seq = 0
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
