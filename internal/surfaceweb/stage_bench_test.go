package surfaceweb_test

import (
	"sync"
	"testing"

	"webiq/internal/kb"
	"webiq/internal/surfaceweb"
	"webiq/internal/synth"
)

var (
	coldOnce   sync.Once
	coldEngine *surfaceweb.Engine
)

// coldCorpusEngine builds, once per process, the corpus perfbench's
// acquire-cold workload queries: the five paper domains plus twenty
// synthetic sweep domains in one engine, all from seed 1. About 1,500
// terms over more than half a million tokens give even a phrase's
// rarest word thousands of positions, which the paper-only corpus does
// not.
func coldCorpusEngine(b *testing.B) *surfaceweb.Engine {
	b.Helper()
	coldOnce.Do(func() {
		coldEngine = surfaceweb.NewEngine()
		cfg := surfaceweb.DefaultCorpusConfig()
		cfg.Seed = 1
		surfaceweb.BuildCorpus(coldEngine, kb.Domains(), cfg)
		for _, sc := range synth.Sweep(20, 1) {
			surfaceweb.BuildCorpus(coldEngine, []*kb.Domain{sc.Domain}, sc.CorpusConfig(1))
		}
		coldEngine.Index()
	})
	return coldEngine
}

// BenchmarkColdCorpusPhrases times the phrase shapes that dominate
// cold acquisition's engine time — a two-word PMI denominator, a
// Figure-4 cue and a cue joined with a candidate value — as hit counts
// and as the extraction search (top 8 snippets).
func BenchmarkColdCorpusPhrases(b *testing.B) {
	for _, q := range []string{`"model year"`, `"keywords such as"`, `"such years as 2006"`} {
		b.Run("hits/"+q, func(b *testing.B) {
			e := coldCorpusEngine(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.NumHits(q)
			}
		})
		b.Run("search/"+q, func(b *testing.B) {
			e := coldCorpusEngine(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Search(q, 8)
			}
		})
	}
}
