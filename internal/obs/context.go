package obs

import (
	"context"
	"strings"
)

type ctxKey struct{}

// ContextWithSpan returns a context carrying span as the current span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, span)
}

// SpanFromContext returns the current span, or nil when the context is
// untraced. Nil spans are inert, so callers never need to check.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's current span and returns a
// derived context carrying it. On an untraced context it returns ctx and a
// nil (inert) span, so instrumentation is unconditional.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}

// ParseTraceParent splits an X-Spq-Trace value,
// "<trace-id>/<parent-span-name>", into trace ID and parent span name. An
// empty or malformed value yields ("", "").
func ParseTraceParent(tp string) (traceID, parent string) {
	if tp == "" {
		return "", ""
	}
	id, rest, ok := strings.Cut(tp, "/")
	if !ok {
		return tp, ""
	}
	if id == "" {
		return "", ""
	}
	return id, rest
}
