package matcher

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/obs"
	"webiq/internal/schema"
	"webiq/internal/surfaceweb"
	"webiq/internal/webiq"
)

var (
	acquiredOnce sync.Once
	acquired     map[string]*schema.Dataset
)

// acquiredDatasets returns each paper domain's dataset after a
// sequential seed-1 acquisition with every component — the attributes
// a pipeline run hands the matcher, acquired values included. They are
// built once per test binary; callers must not mutate them.
func acquiredDatasets(tb testing.TB) map[string]*schema.Dataset {
	tb.Helper()
	acquiredOnce.Do(func() {
		const seed = 1
		eng := surfaceweb.NewEngine()
		ccfg := surfaceweb.DefaultCorpusConfig()
		ccfg.Seed = seed
		surfaceweb.BuildCorpus(eng, kb.Domains(), ccfg)
		acquired = map[string]*schema.Dataset{}
		for _, dom := range kb.Domains() {
			dcfg := dataset.DefaultConfig()
			dcfg.Seed = seed
			ds := dataset.Generate(dom, dcfg)
			pcfg := deepweb.DefaultConfig()
			pcfg.Seed = seed
			pool := deepweb.BuildPool(ds, dom, pcfg)
			webiq.NewPipeline(eng, pool, webiq.DefaultConfig(), webiq.AllComponents()).AcquireAllCtx(context.Background(), ds)
			acquired[dom.Key] = ds
		}
	})
	return acquired
}

// pinnedMatchLedgers holds the SHA-256 of the ledger NDJSON a default
// MatchCtx writes for each paper domain's acquired dataset (seed 1):
// one "matcher"/"merge" decision per merge, in merge order, with its
// strongest-pair breakdown and Detail text. The merge loop's heap and
// the record's formatting must leave every byte in place.
var pinnedMatchLedgers = map[string]string{
	"airfare":    "ae725939a7301b54802ae8e17cccf0eb34ed6e7afaff961f2ded83b51d542d8e",
	"auto":       "5baac19527b4abef7feeef3c88be2e6218984fa74fce47c83f68277266dc5d70",
	"book":       "6a7654046352e38d1ea7cd17e6bfec94b6325220d2d4d4f8099a48ecfbde400f",
	"job":        "a4d76819d8674e5aaf999ed4f53f5f544b4578964dfc1210213ca17e4c9fed56",
	"realestate": "8a3262c263c92b753a0725c6f1d9688251ff50cd57157c4825a1d08ec6e435a8",
}

// TestMatchLedgerPinned pins the merge decisions of the matcher on
// acquired datasets: the merge order, the cluster similarities, and
// every record's fields and Detail.
func TestMatchLedgerPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("acquires five domains")
	}
	for key, ds := range acquiredDatasets(t) {
		var buf bytes.Buffer
		m := New(DefaultConfig())
		m.SetLedger(obs.NewLedger(&buf))
		m.MatchCtx(context.Background(), ds)
		h := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(h[:]); got != pinnedMatchLedgers[key] {
			t.Errorf("%s: ledger digest %s, pinned %s", key, got, pinnedMatchLedgers[key])
		}
	}
}

// TestMatchEquivalentToReferenceAcquired pins the heap-based Match
// against the O(n³) reference on acquired datasets, where acquired
// values reshape the domain similarities, for every linkage and both
// paper thresholds.
func TestMatchEquivalentToReferenceAcquired(t *testing.T) {
	if testing.Short() {
		t.Skip("acquires five domains")
	}
	for key, ds := range acquiredDatasets(t) {
		for _, linkage := range []Linkage{SingleLink, AverageLink, CompleteLink} {
			for _, tau := range []float64{0, 0.1} {
				cfg := DefaultConfig()
				cfg.Linkage = linkage
				cfg.Threshold = tau
				m := New(cfg)
				want := m.referenceMatch(ds)
				if got := m.Match(ds); !reflect.DeepEqual(want, got) {
					t.Errorf("%s linkage=%s tau=%v: heap Match diverges from reference\nwant sims: %v\ngot sims:  %v",
						key, linkage, tau, want.MergeSims, got.MergeSims)
				}
			}
		}
	}
}
