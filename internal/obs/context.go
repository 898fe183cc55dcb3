package obs

import "context"

// Context propagation for request-scoped tracing. A context carries the
// identity of its active span (trace ID + span ID), captured immutably
// at WithSpan time: deriving children from a context stays correct even
// after the span itself has Ended and been pooled.

type spanCtxKey struct{}

// spanRef is the immutable identity snapshot stored in contexts.
type spanRef struct {
	traceID string
	spanID  string
	span    *Span
}

// WithSpan returns a context carrying the span's trace identity (and
// the span itself, for SpanFrom). A nil span returns ctx unchanged.
func WithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanRef{
		traceID: s.TraceID(),
		spanID:  s.SpanID(),
		span:    s,
	})
}

// SpanFrom returns the span stored in ctx, or nil. The returned span is
// only valid until its End; use TraceIDFrom for identity that outlives
// the span.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref.span
}

// TraceIDFrom returns the trace ID of the span carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref.traceID
}

// StartSpan starts a span as a child of the span carried by ctx (a
// fresh root when ctx carries none) and returns the derived context
// carrying the new span. On a nil tracer it returns ctx unchanged and a
// nil span, so instrumented call sites pay only a branch when tracing
// is off.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	var s *Span
	if ref, ok := ctx.Value(spanCtxKey{}).(spanRef); ok {
		s = t.start(name, ref.traceID, t.newID(), ref.spanID)
	} else {
		s = t.StartRoot(name)
	}
	return WithSpan(ctx, s), s
}
