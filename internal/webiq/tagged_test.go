package webiq

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"webiq/internal/dataset"
	"webiq/internal/deepweb"
	"webiq/internal/kb"
	"webiq/internal/nlp"
	"webiq/internal/surfaceweb"
)

// batchMeteredEngine is the engine surface NewPipeline consumes plus
// batched hit counts, so a wrapper keeps the batched validation path.
type batchMeteredEngine interface {
	MeteredEngine
	BatchSearchEngine
}

// tagCheckEngine serves every query from the engine it wraps and checks
// each returned snippet: its tokens must equal tagging its text afresh.
type tagCheckEngine struct {
	batchMeteredEngine
	t        *testing.T
	snippets atomic.Int64
}

func (e *tagCheckEngine) Search(query string, limit int) []surfaceweb.Snippet {
	out := e.batchMeteredEngine.Search(query, limit)
	var tg nlp.Tagger
	for _, snip := range out {
		if snip.Tagged.Text() != snip.Text {
			e.t.Errorf("%q: snippet of doc %d served without its tags", query, snip.DocID)
		}
		got, want := snip.Tokens(nil), tg.TagAppend(nil, snip.Text)
		if !reflect.DeepEqual(got, want) {
			e.t.Errorf("%q: snippet %q tokens\n%v\nwant\n%v", query, snip.Text, got, want)
		}
	}
	e.snippets.Add(int64(len(out)))
	return out
}

// TestServedSnippetTagsMatchTagging runs the five paper domains with
// every component on the fixture's engine, frozen at its first read,
// and twice on a query cache (the second pass answered from cached
// results), and requires every snippet served to carry tags equal to
// tagging its text.
func TestServedSnippetTagsMatchTagging(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five paper domains two ways")
	}
	eng, _, _ := fixture(t)
	cache := surfaceweb.NewCachedEngine(eng, 0)
	for _, tc := range []struct {
		name   string
		engine batchMeteredEngine
		passes int
	}{
		{"frozen", eng, 1},
		{"cached", cache, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chk := &tagCheckEngine{batchMeteredEngine: tc.engine, t: t}
			for pass := 0; pass < tc.passes; pass++ {
				for _, dom := range kb.Domains() {
					ds := dataset.Generate(dom, dataset.DefaultConfig())
					pool := deepweb.BuildPool(ds, dom, deepweb.DefaultConfig())
					NewPipeline(chk, pool, DefaultConfig(), AllComponents()).AcquireAllCtx(context.Background(), ds)
				}
			}
			if chk.snippets.Load() == 0 {
				t.Fatal("the runs served no snippets")
			}
		})
	}
	if cache.Hits() == 0 {
		t.Error("the second cached pass answered nothing from the cache")
	}
}
