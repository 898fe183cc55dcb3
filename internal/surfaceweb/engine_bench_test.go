package surfaceweb

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"webiq/internal/kb"
)

var (
	benchOnce   sync.Once
	benchEngine *Engine
)

// benchCorpusEngine builds the default experiment corpus once per
// process for the query-execution benchmarks.
func benchCorpusEngine(b *testing.B) *Engine {
	b.Helper()
	benchOnce.Do(func() {
		benchEngine = NewEngine()
		BuildCorpus(benchEngine, kb.Domains(), DefaultCorpusConfig())
	})
	return benchEngine
}

const (
	benchPhraseQuery  = `"book titles such as" +book`
	benchKeywordQuery = `+book +title +author`
)

func BenchmarkParseQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ParseQuery(benchPhraseQuery)
	}
}

func BenchmarkCompile(b *testing.B) {
	e := benchCorpusEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Compile(benchPhraseQuery)
	}
}

func BenchmarkNumHits(b *testing.B) {
	for name, q := range map[string]string{"phrase": benchPhraseQuery, "keywords": benchKeywordQuery} {
		b.Run(name, func(b *testing.B) {
			e := benchCorpusEngine(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.NumHits(q)
			}
		})
	}
}

func BenchmarkNumHitsCompiled(b *testing.B) {
	e := benchCorpusEngine(b)
	cq := e.Compile(benchPhraseQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.NumHitsCompiled(cq, benchPhraseQuery)
	}
}

// BenchmarkNumHitsBatch answers one PMI validation burst for the book
// author attribute: the 3 validation phrases × 20 candidates as joint
// phrases, plus every phrase and candidate alone (the PMI
// denominators), compiled once so the loop times the engine kernel.
func BenchmarkNumHitsBatch(b *testing.B) {
	e := benchCorpusEngine(b)
	phrases := []string{"author", "authors such as", "such authors as"}
	xs := kb.DomainByKey("book").ConceptByName("author").AllInstances()[:20]
	var qs []BatchQuery
	add := func(q string) { qs = append(qs, BatchQuery{CQ: e.Compile(q), Charged: q}) }
	for _, x := range xs {
		for _, p := range phrases {
			add(fmt.Sprintf("%q", p+" "+strings.ToLower(x)))
		}
		add(fmt.Sprintf("%q", strings.ToLower(x)))
	}
	for _, p := range phrases {
		add(fmt.Sprintf("%q", p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.NumHitsBatchCompiled(qs)
	}
}

// BenchmarkSearch runs the extraction searches of the eight Figure-4
// cue shapes (s1-s4 set patterns, g1-g4 singleton patterns) for the
// book title attribute, narrowed by the domain keyword as extraction
// narrows them.
func BenchmarkSearch(b *testing.B) {
	for _, c := range []struct{ name, cue string }{
		{"s1", "titles such as"}, {"s2", "such titles as"}, {"s3", "titles including"}, {"s4", "and other titles"},
		{"g1", "the title of the book is"}, {"g2", "the title is"}, {"g3", "is the title of the book"}, {"g4", "is the title"},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := benchCorpusEngine(b)
			q := fmt.Sprintf("%q +book", c.cue)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Search(q, 8)
			}
		})
	}
}

// BenchmarkCorpusScale measures query execution against corpora scaled
// to multiples of the seed size, pinning how the term-ID hot path
// behaves as the simulated Web grows.
func BenchmarkCorpusScale(b *testing.B) {
	for _, factor := range []float64{1, 10} {
		b.Run(fmt.Sprintf("%gx", factor), func(b *testing.B) {
			e := NewEngine()
			BuildCorpus(e, kb.Domains(), DefaultCorpusConfig().Scaled(factor))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.NumHits(benchPhraseQuery)
				e.Search(benchKeywordQuery, 8)
			}
		})
	}
}
