package webiq

import (
	"context"
	"reflect"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
)

// runAcquisition acquires a fresh job-domain dataset with the given
// config and returns the per-attribute acquired instances.
func runAcquisition(t *testing.T, cfg Config) (map[string][]string, *Report) {
	t.Helper()
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey("job")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	v := NewValidator(eng, cfg)
	acq := NewAcquirer(
		NewSurface(eng, v, cfg),
		NewAttrDeep(pool, cfg),
		NewAttrSurface(v, cfg),
		AllComponents(), cfg)
	acq.SetAccounting(
		func() (time.Duration, int) { return 0, 0 },
		func() (time.Duration, int) { return 0, 0 },
	)
	rep := acq.AcquireAllCtx(context.Background(), ds)
	got := map[string][]string{}
	for _, a := range ds.AllAttributes() {
		got[a.ID] = a.Acquired
	}
	return got, rep
}

func TestParallelMatchesSequential(t *testing.T) {
	seq, _ := runAcquisition(t, DefaultConfig())
	cfgPar := DefaultConfig()
	cfgPar.Parallelism = 8
	par, _ := runAcquisition(t, cfgPar)
	if !reflect.DeepEqual(seq, par) {
		for id := range seq {
			if !reflect.DeepEqual(seq[id], par[id]) {
				t.Errorf("attr %s: sequential %v vs parallel %v", id, seq[id], par[id])
			}
		}
	}
}

func TestParallelSurfaceAccounting(t *testing.T) {
	eng, _, _ := fixture(t)
	dom := kb.DomainByKey("book")
	ds := dataset.Generate(dom, dataset.DefaultConfig())
	pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	acq := NewPipeline(eng, pool, cfg, AllComponents())
	rep := acq.AcquireAllCtx(context.Background(), ds)
	if rep.SurfaceQueries == 0 || rep.SurfaceTime <= 0 {
		t.Errorf("parallel phase not accounted: %d queries, %v", rep.SurfaceQueries, rep.SurfaceTime)
	}
}
