package resilience

import (
	"context"

	"webiq/internal/surfaceweb"
)

// Engine is the infallible search-engine slice the simulation provides:
// result snippets for extraction queries and hit counts for validation
// queries. webiq.SearchEngine is an alias of it; *surfaceweb.Engine and
// the cached engine both satisfy it.
type Engine interface {
	Search(query string, limit int) []surfaceweb.Snippet
	NumHits(query string) int
}

// BatchEngine is implemented by infallible engines that answer many
// hit-count queries in one pass (*surfaceweb.Engine and the cached
// engine both do); results and accounting must be identical to issuing
// the queries one by one. webiq.BatchSearchEngine is an alias of it.
type BatchEngine interface {
	NumHitsBatch(queries []string) []int
}

// FallibleEngine is the error-aware, context-aware search engine the
// resilient pipeline consumes. Every call honors ctx cancellation and
// may fail with a transient error, a timeout, or a breaker rejection.
type FallibleEngine interface {
	Search(ctx context.Context, query string, limit int) ([]surfaceweb.Snippet, error)
	NumHits(ctx context.Context, query string) (int, error)
}

// FallibleSource is the error-aware, context-aware Deep-Web probing
// interface: one probe against the source backing interfaceID, with the
// attribute set to value. The returned page may be malformed — response
// analysis must classify it, never trust it.
type FallibleSource interface {
	Probe(ctx context.Context, interfaceID, attrID, value string) (string, error)
}

// AdaptEngine lifts an infallible engine into a FallibleEngine that
// never fails (beyond honoring an already-expired context). It is the
// bottom of every chain. When e is a BatchEngine the adapter also has
// NumHitsBatch(ctx, queries) ([]int, error), forwarding to it.
func AdaptEngine(e Engine) FallibleEngine {
	if be, ok := e.(BatchEngine); ok {
		return &batchEngineAdapter{engineAdapter{e}, be}
	}
	return &engineAdapter{e}
}

type engineAdapter struct{ e Engine }

func (a *engineAdapter) Search(ctx context.Context, query string, limit int) ([]surfaceweb.Snippet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.e.Search(query, limit), nil
}

func (a *engineAdapter) NumHits(ctx context.Context, query string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.e.NumHits(query), nil
}

type batchEngineAdapter struct {
	engineAdapter
	be BatchEngine
}

func (a *batchEngineAdapter) NumHitsBatch(ctx context.Context, queries []string) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.be.NumHitsBatch(queries), nil
}

// ProbeFunc adapts a probing function into a FallibleSource (webiq's
// zero-fault Attr-Deep backend and webiq.FaultClients lift deep-web
// sources with it).
type ProbeFunc func(interfaceID, attrID, value string) (string, error)

// Probe implements FallibleSource.
func (f ProbeFunc) Probe(ctx context.Context, interfaceID, attrID, value string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return f(interfaceID, attrID, value)
}
