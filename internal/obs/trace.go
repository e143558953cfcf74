package obs

import (
	"context"
	"runtime/pprof"
	"time"
)

// Causal tracing
//
// A span carries three IDs: Trace (shared by every span reachable from one
// root), Span (unique per span within a recorder), and Parent (the Span ID
// of the enclosing span, 0 for roots). IDs are allocated from one atomic
// counter per Recorder, so they are unique, nonzero, and — because a child
// is always started after its parent — strictly greater than their parent's
// ID. That ordering makes parent links trivially acyclic and lets exporters
// sort spans causally without a graph walk.
//
// Propagation is by context.Context: StartSpanCtx reads the innermost span
// out of ctx, links the new span under it, and returns a derived context
// carrying the new span. Code that only emits point events calls EventCtx
// and inherits the trace/parent of whatever span is in ctx. A nil Recorder
// keeps the whole surface free: StartSpanCtx returns (ctx, nil) without
// deriving a context, so the disabled path stays a nil check and zero
// allocations.

// spanCtxKey keys the innermost *Span in a context.
type spanCtxKey struct{}

// SpanFromContext returns the innermost span stored in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpanCtx begins a named span as a child of the span carried by ctx
// (a root span of a fresh trace when ctx carries none) and returns a
// derived context carrying the new span plus the span itself. On a nil
// receiver it returns (ctx, nil) untouched — the zero-cost disabled path.
func (r *Recorder) StartSpanCtx(ctx context.Context, name string, fields ...Field) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	sp := &Span{r: r, name: name, t0: time.Now(), id: r.ids.Add(1)}
	if parent := SpanFromContext(ctx); parent != nil && parent.r == r {
		sp.trace = parent.trace
		sp.parent = parent.id
	} else {
		sp.trace = r.ids.Add(1)
	}
	sp.fields = append(sp.fields, fields...)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// EventCtx emits one instantaneous event attributed to the span carried by
// ctx: the event inherits the span's trace ID and records the span as its
// parent, so exporters can place it on the right timeline lane.
func (r *Recorder) EventCtx(ctx context.Context, name string, fields ...Field) {
	if r == nil {
		return
	}
	ev := Event{
		T:      time.Since(r.start).Seconds(),
		Kind:   "event",
		Name:   name,
		Fields: fieldMap(fields),
	}
	if sp := SpanFromContext(ctx); sp != nil && sp.r == r {
		ev.Trace = sp.trace
		ev.Parent = sp.id
	}
	r.emit(ev)
}

// Do runs fn with the goroutine labeled phase=<phase> for the CPU profiler
// (runtime/pprof label propagation), so profiles collected during a traced
// run segment by the same phases the span tree records. On a nil receiver
// it calls fn(ctx) directly — no labels, no allocation.
func (r *Recorder) Do(ctx context.Context, phase string, fn func(context.Context)) {
	if r == nil {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("phase", phase), fn)
}
