package webiq

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/surfaceweb"
)

// acquisitionRun does a full acquisition of one domain at one seed and
// returns the Report, the acquired instances per attribute, and the
// substrate query counts consumed by the run. compCfg configures the
// components (validator, Surface, Attr-Deep, Attr-Surface); acqCfg
// configures the Acquirer, whose Parallelism field additionally controls
// the cross-attribute up-front Surface phase.
func acquisitionRun(t *testing.T, domain string, seed int64, compCfg, acqCfg Config) (*Report, map[string][]string, int, int) {
	t.Helper()
	eng := surfaceweb.NewEngine()
	corpusCfg := surfaceweb.DefaultCorpusConfig()
	corpusCfg.Seed = seed
	surfaceweb.BuildCorpus(eng, kb.Domains(), corpusCfg)

	dom := kb.DomainByKey(domain)
	dataCfg := dataset.DefaultConfig()
	dataCfg.Seed = seed
	ds := dataset.Generate(dom, dataCfg)
	deepCfg := deepweb.DefaultConfig()
	deepCfg.Seed = seed
	pool := deepweb.BuildPool(ds, dom, deepCfg)

	v := NewValidator(eng, compCfg)
	acq := NewAcquirer(NewSurface(eng, v, compCfg), NewAttrDeep(pool, compCfg),
		NewAttrSurface(v, compCfg), AllComponents(), acqCfg)
	acq.SetAccounting(
		func() (time.Duration, int) { return eng.VirtualTime(), eng.QueryCount() },
		func() (time.Duration, int) { return pool.VirtualTime(), pool.QueryCount() },
	)
	rep := acq.AcquireAllCtx(context.Background(), ds)
	got := map[string][]string{}
	for _, a := range ds.AllAttributes() {
		got[a.ID] = a.Acquired
	}
	return rep, got, eng.QueryCount(), pool.QueryCount()
}

// TestParallelValidationReportsByteIdentical pins the determinism
// contract of the parallel validation paths added to Attr-Surface
// (classifier training and borrowed-value scoring) and Attr-Deep
// (probing): with the components running 8 workers but the acquisition
// policy visiting attributes in the usual order, the Report — outcomes,
// per-component virtual times, and query counts — must be byte-for-byte
// the sequential run's across seeds, and so must every attribute's
// acquired instances and the total substrate query counts.
func TestParallelValidationReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	for _, seed := range []int64{1, 2, 3} {
		seqCfg := DefaultConfig()
		parCfg := DefaultConfig()
		parCfg.Parallelism = 8

		seqRep, seqGot, seqQ, seqP := acquisitionRun(t, "job", seed, seqCfg, seqCfg)
		parRep, parGot, parQ, parP := acquisitionRun(t, "job", seed, parCfg, seqCfg)

		seqJSON, err := json.Marshal(seqRep)
		if err != nil {
			t.Fatal(err)
		}
		parJSON, err := json.Marshal(parRep)
		if err != nil {
			t.Fatal(err)
		}
		if string(seqJSON) != string(parJSON) {
			t.Errorf("seed %d: parallel-validation Report differs from sequential:\nseq: %s\npar: %s",
				seed, seqJSON, parJSON)
		}
		if !reflect.DeepEqual(seqGot, parGot) {
			for id := range seqGot {
				if !reflect.DeepEqual(seqGot[id], parGot[id]) {
					t.Errorf("seed %d attr %s: sequential %v vs parallel %v",
						seed, id, seqGot[id], parGot[id])
				}
			}
		}
		if seqQ != parQ || seqP != parP {
			t.Errorf("seed %d: query counts differ: sequential %d/%d, parallel %d/%d",
				seed, seqQ, seqP, parQ, parP)
		}
	}
}

// TestFullParallelOutcomesAndTotals runs the fully parallel
// configuration — within-attribute validation workers plus the
// Acquirer's cross-attribute up-front Surface phase — and checks it
// against the sequential run. Outcomes, acquired instances, total
// engine/pool consumption, and the Attr-Deep component charges must be
// identical. The split between Surface and Attr-Surface charges is NOT
// compared: the up-front phase issues all discovery queries before any
// Attr-Surface validation, so a validation query shared by both phases
// is charged to whichever runs first (the validator memoizes it), and
// that is the Surface phase here but an interleaved phase sequentially.
func TestFullParallelOutcomesAndTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("full acquisition runs; skipped in -short")
	}
	seqCfg := DefaultConfig()
	parCfg := DefaultConfig()
	parCfg.Parallelism = 8

	seqRep, seqGot, seqQ, seqP := acquisitionRun(t, "job", 1, seqCfg, seqCfg)
	parRep, parGot, parQ, parP := acquisitionRun(t, "job", 1, parCfg, parCfg)

	seqOut, err := json.Marshal(seqRep.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	parOut, err := json.Marshal(parRep.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqOut) != string(parOut) {
		t.Errorf("fully parallel outcomes differ from sequential:\nseq: %s\npar: %s", seqOut, parOut)
	}
	if !reflect.DeepEqual(seqGot, parGot) {
		t.Error("fully parallel acquired instances differ from sequential")
	}
	if seqQ != parQ || seqP != parP {
		t.Errorf("total query counts differ: sequential %d/%d, parallel %d/%d", seqQ, seqP, parQ, parP)
	}
	if st, pt := seqRep.SurfaceTime+seqRep.AttrSurfaceTime, parRep.SurfaceTime+parRep.AttrSurfaceTime; st != pt {
		t.Errorf("combined engine time differs: sequential %v, parallel %v", st, pt)
	}
	if sq, pq := seqRep.SurfaceQueries+seqRep.AttrSurfaceQueries, parRep.SurfaceQueries+parRep.AttrSurfaceQueries; sq != pq {
		t.Errorf("combined engine queries differ: sequential %d, parallel %d", sq, pq)
	}
	if seqRep.AttrDeepTime != parRep.AttrDeepTime || seqRep.AttrDeepQueries != parRep.AttrDeepQueries {
		t.Errorf("attr-deep charges differ: sequential %v/%d, parallel %v/%d",
			seqRep.AttrDeepTime, seqRep.AttrDeepQueries, parRep.AttrDeepTime, parRep.AttrDeepQueries)
	}
}

// TestParallelValidationStress drives the parallel Attr-Surface and
// Attr-Deep paths with many workers; under -race it pins the worker-pool
// and singleflight synchronization.
func TestParallelValidationStress(t *testing.T) {
	eng, data, pools := fixture(t)
	ds := data["airfare"]
	cfg := DefaultConfig()
	cfg.Parallelism = 16
	v := NewValidator(eng, cfg)
	as := NewAttrSurface(v, cfg)
	ad := NewAttrDeep(pools["airfare"], cfg)

	var attr *attrCase
	for _, ifc := range ds.Interfaces {
		for _, a := range ifc.Attributes {
			if a.HasInstances() && len(a.Instances) >= 4 {
				attr = &attrCase{label: a.Label, pos: a.Instances, ifcID: ifc.ID, attrID: a.ID}
				break
			}
		}
		if attr != nil {
			break
		}
	}
	if attr == nil {
		t.Fatal("no predefined-value attribute in fixture")
	}
	borrowed := []string{"Delta", "United", "Lufthansa", "Aer Lingus", "Quantum Air", "Nonexistent Co"}
	negatives := []string{"Boston", "Chicago", "May", "June"}
	for i := 0; i < 4; i++ {
		as.ValidateBorrowedCtx(context.Background(), attr.attrID, attr.label, attr.pos, negatives, borrowed)
		ad.ValidateBorrowedCtx(context.Background(), attr.ifcID, attr.attrID, attr.label, "", borrowed)
	}
}

type attrCase struct {
	label, ifcID, attrID string
	pos                  []string
}
