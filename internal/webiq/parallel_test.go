package webiq

import (
	"reflect"
	"testing"
	"time"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/schema"
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
	rep := acq.AcquireAll(ds)
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
	rep := acq.AcquireAll(ds)
	if rep.SurfaceQueries == 0 || rep.SurfaceTime <= 0 {
		t.Errorf("parallel phase not accounted: %d queries, %v", rep.SurfaceQueries, rep.SurfaceTime)
	}
}

func TestCacheDiscoveryReturnsCopies(t *testing.T) {
	eng, data, _ := fixture(t)
	ds := data["book"]
	cfg := DefaultConfig()
	cfg.CacheDiscovery = true
	v := NewValidator(eng, cfg)
	s := NewSurface(eng, v, cfg)
	a1 := &schema.Attribute{ID: "x1", InterfaceID: ds.Interfaces[0].ID, Label: "Publisher"}
	a2 := &schema.Attribute{ID: "x2", InterfaceID: ds.Interfaces[1].ID, Label: "Publisher"}
	got1 := s.DiscoverInstances(a1, ds.Interfaces[0], ds)
	if len(got1) == 0 {
		t.Skip("no publisher instances discovered")
	}
	got2 := s.DiscoverInstances(a2, ds.Interfaces[1], ds)
	if !reflect.DeepEqual(got1, got2) {
		t.Error("cache miss on identical label")
	}
	// Mutating one caller's slice must not corrupt the cache.
	got1[0] = "CORRUPTED"
	got3 := s.DiscoverInstances(a2, ds.Interfaces[1], ds)
	if got3[0] == "CORRUPTED" {
		t.Error("cache shares backing array with callers")
	}
}

func TestCacheDiscoverySavesQueries(t *testing.T) {
	eng, data, _ := fixture(t)
	ds := data["book"]
	run := func(cache bool) int {
		cfg := DefaultConfig()
		cfg.CacheDiscovery = cache
		v := NewValidator(eng, cfg)
		s := NewSurface(eng, v, cfg)
		q0 := eng.QueryCount()
		for i := 0; i < 3; i++ {
			a := &schema.Attribute{ID: "y", InterfaceID: ds.Interfaces[0].ID, Label: "Author"}
			s.DiscoverInstances(a, ds.Interfaces[0], ds)
		}
		return eng.QueryCount() - q0
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("cache did not save queries: with=%d without=%d", with, without)
	}
}
