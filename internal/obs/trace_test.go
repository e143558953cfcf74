package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
)

// TestSpanContextParentage pins the causal-ID contract: children inherit
// the root's trace ID, parent links point at the enclosing span, and IDs
// strictly increase from parent to child (which makes the links acyclic).
func TestSpanContextParentage(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)

	ctx, root := rec.StartSpanCtx(context.Background(), "root")
	cctx, child := rec.StartSpanCtx(ctx, "child")
	_, grand := rec.StartSpanCtx(cctx, "grandchild")
	rec.EventCtx(cctx, "note", F("k", 1))
	grand.End()
	child.End()
	root.End()

	if root.ParentID() != 0 {
		t.Fatalf("root has parent %d", root.ParentID())
	}
	if child.ParentID() != root.ID() || grand.ParentID() != child.ID() {
		t.Fatalf("parent links wrong: root=%d child=%d/%d grand=%d/%d",
			root.ID(), child.ID(), child.ParentID(), grand.ID(), grand.ParentID())
	}
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatalf("trace ids diverge: %d %d %d", root.TraceID(), child.TraceID(), grand.TraceID())
	}
	if !(root.ID() < child.ID() && child.ID() < grand.ID()) {
		t.Fatalf("ids not increasing: %d %d %d", root.ID(), child.ID(), grand.ID())
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The "note" event must be attributed to the child span.
	var note *Event
	for i := range evs {
		if evs[i].Name == "note" {
			note = &evs[i]
		}
	}
	if note == nil || note.Parent != child.ID() || note.Trace != root.TraceID() {
		t.Fatalf("note attribution wrong: %+v (child=%d trace=%d)", note, child.ID(), root.TraceID())
	}
}

// TestSpanContextForeignRecorder: a span from another recorder in ctx must
// not become the parent — each recorder allocates from its own ID space.
func TestSpanContextForeignRecorder(t *testing.T) {
	recA := NewRecorder(nil)
	recB := NewRecorder(nil)
	ctx, spA := recA.StartSpanCtx(context.Background(), "a")
	_, spB := recB.StartSpanCtx(ctx, "b")
	if spB.ParentID() != 0 {
		t.Fatalf("cross-recorder parent leaked: %d", spB.ParentID())
	}
	spB.End()
	spA.End()
}

// TestNilRecorderTraceSurface: every trace entry point must be free and
// inert when telemetry is disabled.
func TestNilRecorderTraceSurface(t *testing.T) {
	var rec *Recorder
	ctx := context.Background()
	octx, sp := rec.StartSpanCtx(ctx, "x", F("a", 1))
	if sp != nil {
		t.Fatal("nil recorder returned a span")
	}
	if octx != ctx {
		t.Fatal("nil recorder derived a context")
	}
	if SpanFromContext(nil) != nil || SpanFromContext(ctx) != nil {
		t.Fatal("SpanFromContext invented a span")
	}
	rec.EventCtx(ctx, "e")
	ran := false
	rec.Do(ctx, "phase", func(got context.Context) {
		ran = true
		if got != ctx {
			t.Fatal("nil recorder Do changed the context")
		}
	})
	if !ran {
		t.Fatal("nil recorder Do skipped fn")
	}
	if sp.TraceID() != 0 || sp.ID() != 0 || sp.ParentID() != 0 {
		t.Fatal("nil span ids nonzero")
	}
}

// TestDoAppliesPprofLabel: inside Recorder.Do the goroutine must carry the
// phase label so CPU profiles segment by the same names as the span tree.
func TestDoAppliesPprofLabel(t *testing.T) {
	rec := NewRecorder(nil)
	var got string
	var ok bool
	rec.Do(context.Background(), "solution", func(ctx context.Context) {
		got, ok = pprof.Label(ctx, "phase")
	})
	if !ok || got != "solution" {
		t.Fatalf("phase label = %q, %v", got, ok)
	}
}

// TestFieldsSortedGolden pins byte-exact JSONL for out-of-order field
// insertion: keys marshal sorted, floats in shortest 'g' form.
func TestFieldsSortedGolden(t *testing.T) {
	f := Fields{"zeta": 2, "alpha": 0.5, "mid": 3}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"alpha":0.5,"mid":3,"zeta":2}`
	if string(b) != want {
		t.Fatalf("got %s want %s", b, want)
	}
}

// TestFieldsRejectNonFinite: NaN/Inf fields must fail marshaling loudly
// instead of emitting invalid JSON.
func TestFieldsRejectNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(Fields{"bad": v}); err == nil {
			t.Fatalf("field %v marshaled without error", v)
		}
	}
}

// TestSpanJSONOmitsZeroIDs: events recorded outside a trace keep their old
// shape — no trace/span/parent keys — so pre-trace JSONL consumers and
// goldens are unaffected.
func TestSpanJSONOmitsZeroIDs(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Event("plain", F("x", 1))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, key := range []string{`"trace"`, `"span"`, `"parent"`, `"ledger"`} {
		if strings.Contains(line, key) {
			t.Fatalf("untraced event leaked %s: %s", key, line)
		}
	}
}

// TestSpanHistogramQuantiles: Span.End feeds the per-name duration
// histogram behind SpanHistogram; an unknown name yields an empty snapshot
// whose quantiles are NaN.
func TestSpanHistogramQuantiles(t *testing.T) {
	rec := NewRecorder(nil)
	for i := 0; i < 3; i++ {
		rec.StartSpan("work").End()
	}
	h := rec.SpanHistogram("work")
	if h.Count != 3 {
		t.Fatalf("count %d, want 3", h.Count)
	}
	if q := h.Quantile(0.5); math.IsNaN(q) || q < 0 {
		t.Fatalf("p50 = %v", q)
	}
	if q := rec.SpanHistogram("missing").Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("missing-span quantile = %v, want NaN", q)
	}
}

// TestQuantileInterpolation checks the Prometheus histogram_quantile
// semantics on a hand-built histogram: rank q·Count with linear
// interpolation inside the bucket, first bucket anchored at 0, +Inf bucket
// clamped to the largest finite bound.
func TestQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 8} {
		h.Observe(v)
	}
	s := h.Snapshot()
	cases := []struct {
		q, want float64
	}{
		{0.2, 1},    // rank 1 → first bucket [0,1], full fraction
		{0.5, 1.75}, // rank 2.5 → bucket (1,2], 1.5 of count 2 → 1+0.75
		{0.8, 4},    // rank 4 → bucket (2,4], fraction 1
		{0.99, 4},   // rank 4.95 → +Inf bucket → clamp to 4
		{1.0, 4},    // clamp
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := s.Quantile(0.5); got != 1.75 {
		t.Fatalf("p50 = %v, want 1.75 exactly", got)
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if got := s.Quantile(q); !math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = %v, want NaN", q, got)
		}
	}
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty Quantile = %v, want NaN", got)
	}
}

// Test-only API: no non-test code calls what follows (see
// TestExportedMethodsHaveCallers in the repository root).

// TraceID returns the span's trace ID (0 on a nil receiver).
func (sp *Span) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.trace
}

// ParentID returns the enclosing span's ID (0 for roots and nil receivers).
func (sp *Span) ParentID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.parent
}

// ID returns the span's own ID (0 on a nil receiver).
func (sp *Span) ID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.id
}
